"""Exact symbolic abstract domain for parametric schedule proofs.

The concrete gates (`repro verify`, `repro mc`) check *sampled* process
counts. This module supplies the arithmetic core that lets
:mod:`repro.analysis.certify` reason about **all** P at once:

* :class:`Lin` — linear expressions ``c0 + c1*x1 + ... + cn*xn`` over
  named integer symbols with exact :class:`fractions.Fraction`
  coefficients (in practice integers; Fractions appear only inside the
  decision procedure).
* :class:`Env` — an assumption context: a conjunction of linear
  inequalities ``lin >= 0``, plus *divisibility declarations* (symbol u
  is a multiple of expression m) and *power-of-two declarations*.
  Entailment of ``lin >= 0`` is decided by refuting ``lin <= -1`` with
  Fourier–Motzkin elimination over the rationals — sound for integer
  symbols because every certificate expression has integer
  coefficients, so ``lin < 0`` implies ``lin <= -1``. The procedure is
  *incomplete* in the safe direction: it may fail to prove a true fact
  (the certificate obligation then fails loudly) but never proves a
  false one over the rationals, hence never over the integers.
* modular reasoning — ``Env.divisibility(lin, mod)`` decides
  ``lin ≡ 0 (mod m)`` by rewriting the expression against the declared
  multiple-of facts and bounding the residue in ``(0, m)`` /
  ``(-m, 0)``. Two power-of-two axioms are built in: for pof2 symbols
  p, q, provable ``p >= q`` gives ``q | p`` and provable ``p > q``
  gives ``2q | p``.
* :class:`Interval` / :class:`SymSet` — unions of closed affine
  intervals with provable membership / exclusion / cardinality.
* :class:`RingSet` — a :class:`SymSet` of chunk *offsets* interpreted
  modulo P, the shape every ring-schedule invariant takes. Canonical
  offsets live in ``[-(P-1), P-1]``, so wrap-around only has to examine
  shifts by ``k*P`` for ``k`` in a small fixed window; the canonical
  bound is itself a proof obligation checked at construction.

Everything is exact integer/rational arithmetic: no floats, no
numerics, no sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "Lin",
    "Env",
    "Interval",
    "SymSet",
    "RingSet",
    "lin",
    "var",
    "const",
    "AbstractDomainError",
]

LinLike = Union["Lin", int]


class AbstractDomainError(ValueError):
    """Misuse of the abstract domain (not a failed proof obligation)."""


# ---------------------------------------------------------------------------
# Linear expressions
# ---------------------------------------------------------------------------


def _as_fraction(value: Union[int, Fraction]) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


@dataclass(frozen=True)
class Lin:
    """``constant + sum(coeff * symbol)`` with exact coefficients.

    Immutable and hashable; symbols are plain strings. Construction
    normalizes away zero coefficients so structural equality is
    semantic equality.
    """

    coeffs: Tuple[Tuple[str, Fraction], ...]
    constant: Fraction

    @staticmethod
    def make(
        coeffs: Mapping[str, Union[int, Fraction]],
        constant: Union[int, Fraction] = 0,
    ) -> "Lin":
        items = tuple(
            sorted(
                (sym, _as_fraction(c))
                for sym, c in coeffs.items()
                if _as_fraction(c) != 0
            )
        )
        return Lin(items, _as_fraction(constant))

    @staticmethod
    def of(value: LinLike) -> "Lin":
        if isinstance(value, Lin):
            return value
        return Lin.make({}, value)

    def coeff(self, sym: str) -> Fraction:
        for name, c in self.coeffs:
            if name == sym:
                return c
        return Fraction(0)

    @property
    def symbols(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.coeffs)

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def __add__(self, other: LinLike) -> "Lin":
        o = Lin.of(other)
        merged: Dict[str, Fraction] = dict(self.coeffs)
        for sym, c in o.coeffs:
            merged[sym] = merged.get(sym, Fraction(0)) + c
        return Lin.make(merged, self.constant + o.constant)

    def __radd__(self, other: LinLike) -> "Lin":
        return self.__add__(other)

    def __neg__(self) -> "Lin":
        return self.scale(-1)

    def __sub__(self, other: LinLike) -> "Lin":
        return self + (-Lin.of(other))

    def __rsub__(self, other: LinLike) -> "Lin":
        return Lin.of(other) - self

    def scale(self, factor: Union[int, Fraction]) -> "Lin":
        f = _as_fraction(factor)
        return Lin.make({sym: c * f for sym, c in self.coeffs}, self.constant * f)

    def __mul__(self, factor: int) -> "Lin":
        return self.scale(factor)

    def __rmul__(self, factor: int) -> "Lin":
        return self.scale(factor)

    def has_integer_coeffs(self) -> bool:
        return self.constant.denominator == 1 and all(
            c.denominator == 1 for _, c in self.coeffs
        )

    def __str__(self) -> str:
        parts: List[str] = []
        for sym, c in self.coeffs:
            if c == 1:
                parts.append(sym)
            elif c == -1:
                parts.append(f"-{sym}")
            else:
                parts.append(f"{c}*{sym}")
        if self.constant != 0 or not parts:
            parts.append(str(self.constant))
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


def var(name: str) -> Lin:
    """The symbol *name* as a linear expression."""
    return Lin.make({name: 1})


def const(value: Union[int, Fraction]) -> Lin:
    return Lin.make({}, value)


def lin(
    constant: Union[int, Fraction] = 0, **coeffs: Union[int, Fraction]
) -> Lin:
    """Convenience builder: ``lin(3, P=1, s=-2)`` is ``3 + P - 2s``."""
    return Lin.make(coeffs, constant)


# ---------------------------------------------------------------------------
# Fourier–Motzkin feasibility
# ---------------------------------------------------------------------------

#: Safety valve: an eliminated system growing past this many inequalities
#: aborts the refutation (treated as "could not prove", never as a proof).
_FM_LIMIT = 4000


def _fm_feasible(constraints: Sequence[Lin]) -> bool:
    """Rational satisfiability of the conjunction ``lin >= 0 for all``.

    Returns False only when the system is genuinely infeasible over the
    rationals (hence over the integers). Returns True both for feasible
    systems and when the elimination exceeds the size limit.
    """
    system: List[Lin] = list(constraints)
    while True:
        for c in system:
            if c.is_constant and c.constant < 0:
                return False
        symbols = sorted({s for c in system for s in c.symbols})
        if not symbols:
            return True
        # Eliminate the symbol with the fewest upper*lower combinations.
        best_sym = None
        best_cost = None
        for sym in symbols:
            lowers = sum(1 for c in system if c.coeff(sym) > 0)
            uppers = sum(1 for c in system if c.coeff(sym) < 0)
            cost = lowers * uppers
            if best_cost is None or cost < best_cost:
                best_sym, best_cost = sym, cost
        assert best_sym is not None
        sym = best_sym
        lowers_l: List[Lin] = []
        uppers_l: List[Lin] = []
        rest: List[Lin] = []
        for c in system:
            a = c.coeff(sym)
            if a > 0:
                lowers_l.append(c)
            elif a < 0:
                uppers_l.append(c)
            else:
                rest.append(c)
        new_system = rest
        for lo in lowers_l:
            for up in uppers_l:
                # lo: a*x + r >= 0 (a>0)  =>  x >= -r/a
                # up: b*x + t >= 0 (b<0)  =>  x <= t/(-b)
                combined = lo.scale(-up.coeff(sym)) + up.scale(lo.coeff(sym))
                combined = Lin.make(dict(combined.coeffs), combined.constant)
                new_system.append(combined)
        if len(new_system) > _FM_LIMIT:
            return True  # give up: cannot refute
        system = new_system


# ---------------------------------------------------------------------------
# Assumption contexts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Env:
    """A conjunction of assumptions about integer symbols.

    * ``constraints`` — linear facts, each meaning ``lin >= 0``;
    * ``multiples`` — pairs ``(symbol, m)`` meaning the symbol's value
      is an integer multiple of the value of ``m``;
    * ``pof2`` — symbols whose value is a power of two (>= 1).

    Envs are immutable; ``assume``/``with_multiple``/``with_pof2``
    return extended copies, and ``split`` returns the two halves of a
    case split. All proof obligations in :mod:`repro.analysis.certify`
    are discharged by ``entails``/``entails_eq``/``divisibility``
    queries against an Env.
    """

    constraints: Tuple[Lin, ...] = ()
    multiples: Tuple[Tuple[str, Lin], ...] = ()
    pof2: Tuple[str, ...] = ()

    # -- construction ------------------------------------------------------

    def assume(self, *facts: LinLike) -> "Env":
        """Extend with ``fact >= 0`` for each fact."""
        new = tuple(Lin.of(f) for f in facts)
        for f in new:
            if not f.has_integer_coeffs():
                raise AbstractDomainError(
                    f"assumption {f} must have integer coefficients"
                )
        return Env(self.constraints + new, self.multiples, self.pof2)

    def assume_eq(self, a: LinLike, b: LinLike) -> "Env":
        d = Lin.of(a) - Lin.of(b)
        return self.assume(d, -d)

    def with_multiple(self, sym: str, modulus: LinLike) -> "Env":
        """Declare that *sym*'s value is a multiple of *modulus*."""
        return Env(
            self.constraints,
            self.multiples + ((sym, Lin.of(modulus)),),
            self.pof2,
        )

    def with_pof2(self, *syms: str) -> "Env":
        return Env(self.constraints, self.multiples, self.pof2 + syms)

    # -- linear entailment -------------------------------------------------

    def feasible(self) -> bool:
        """Rationally satisfiable? (False is definitive infeasibility.)"""
        return _fm_feasible(self._all_linear())

    def entails(self, fact: LinLike) -> bool:
        """Is ``fact >= 0`` provable for every integer model of self?

        Decided by refuting ``fact <= -1`` (integer strengthening of
        ``fact < 0``; requires integer coefficients).
        """
        f = Lin.of(fact)
        if not f.has_integer_coeffs():
            raise AbstractDomainError(
                f"entailment query {f} must have integer coefficients"
            )
        negation = -f - 1  # fact <= -1  <=>  -fact - 1 >= 0
        return not _fm_feasible(self._all_linear() + (negation,))

    def entails_eq(self, a: LinLike, b: LinLike = 0) -> bool:
        d = Lin.of(a) - Lin.of(b)
        return self.entails(d) and self.entails(-d)

    def entails_lt(self, a: LinLike, b: LinLike) -> bool:
        """``a < b`` i.e. ``b - a - 1 >= 0`` for integers."""
        return self.entails(Lin.of(b) - Lin.of(a) - 1)

    def split(self, fact: LinLike) -> Tuple["Env", "Env"]:
        """Case split: ``(self + fact>=0, self + fact<=-1)``."""
        f = Lin.of(fact)
        return self.assume(f), self.assume(-f - 1)

    def _all_linear(self) -> Tuple[Lin, ...]:
        # pof2 symbols are at least 1.
        extra = tuple(var(p) - 1 for p in self.pof2)
        return self.constraints + extra

    # -- divisibility ------------------------------------------------------

    def _modulus_divides(self, a: Lin, b: Lin) -> bool:
        """Provably ``value(a)`` divides ``value(b)`` (both positive).

        Rules, in order:
        1. syntactic integer multiple: ``b == k*a`` for integer k >= 1;
        2. constant a dividing all of b's coefficients and constant;
        3. power-of-two chain: a and b are single pof2-symbol terms (or
           pof2 constants) and ``a < 2b`` is provable — powers of two x
           below 2y satisfy x <= y, and for powers of two ordering is
           divisibility. (This built-in gap axiom is what turns the
           linear fact ``M >= m + 1`` about pof2 masks into ``2m | M``.)
        """
        if a == b:
            return True
        # Rule 1: b = k * a syntactically.
        ratio: Optional[Fraction] = None
        if a.coeffs:
            lead_sym, lead_c = a.coeffs[0]
            bc = b.coeff(lead_sym)
            if bc != 0 and lead_c != 0:
                ratio = bc / lead_c
        elif a.constant != 0:
            ratio = b.constant / a.constant
        if ratio is not None and ratio.denominator == 1 and ratio >= 1:
            if b == a.scale(ratio):
                return True
        # Rule 2: constant a divides every component of b.
        if a.is_constant and a.constant >= 1 and a.constant.denominator == 1:
            k = int(a.constant)
            if b.has_integer_coeffs():
                comps = [int(b.constant)] + [int(c) for _, c in b.coeffs]
                if all(c % k == 0 for c in comps):
                    return True
        # Rule 3: pof2 chain with the gap axiom (a < 2b => a <= b => a | b).
        if (
            self._is_pof2_term(a)
            and self._is_pof2_term(b)
            and self.entails(b.scale(2) - a - 1)
        ):
            return True
        return False

    def _is_pof2_term(self, e: Lin) -> bool:
        """Is *e* provably a power of two: ``2^k * p`` or ``2^k``?"""

        def is_pow2_int(f: Fraction) -> bool:
            if f.denominator != 1 or f <= 0:
                return False
            n = int(f)
            return n & (n - 1) == 0

        if e.is_constant:
            return is_pow2_int(e.constant)
        if len(e.coeffs) == 1 and e.constant == 0:
            sym, c = e.coeffs[0]
            return sym in self.pof2 and is_pow2_int(c)
        return False

    def residue(self, expr: LinLike, modulus: LinLike) -> Optional[Lin]:
        """Rewrite *expr* modulo *modulus* using the declared facts.

        Every term ``c*sym`` where some declared multiple-of fact (or
        the term itself) is divisible by *modulus* drops out; if any
        term cannot be resolved, returns None (unknown residue).
        """
        e = Lin.of(expr)
        m = Lin.of(modulus)
        if not e.has_integer_coeffs():
            return None
        out = const(e.constant)
        for sym, c in e.coeffs:
            term = Lin.make({sym: c})
            if self._modulus_divides(m, term):
                continue
            resolved = False
            for decl_sym, decl_mod in self.multiples:
                if decl_sym == sym and self._modulus_divides(m, decl_mod):
                    resolved = True
                    break
            if resolved:
                continue
            out = out + term
        return out

    def divisibility(self, expr: LinLike, modulus: LinLike) -> Optional[bool]:
        """Decide ``expr ≡ 0 (mod modulus)``; None when undecidable.

        True requires the residue to vanish (or be a syntactic multiple
        of the modulus); False requires the residue to be provably
        strictly between 0 and the modulus (or its negation). When the
        direct residue is inconclusive, a contrapositive rule applies:
        for any declared modulus d that provably divides *modulus*, a
        refuted ``expr ≡ 0 (mod d)`` refutes ``expr ≡ 0 (mod modulus)``
        (d | m and m | x would give d | x).
        """
        e = Lin.of(expr)
        m = Lin.of(modulus)
        direct = self._divisibility_direct(e, m)
        if direct is not None:
            return direct
        for d in self._divisor_candidates(e):
            if d == m:
                continue
            if self._modulus_divides(d, m) and self._divisibility_direct(e, d) is False:
                return False
        return None

    def _divisibility_direct(self, e: Lin, m: Lin) -> Optional[bool]:
        rho = self.residue(e, m)
        if rho is None:
            return None
        if rho == const(0) or self._modulus_divides(m, rho):
            return True
        if self._modulus_divides(m, -rho):
            return True
        # rho in (0, m) or rho in (-m, 0) => not divisible.
        if self.entails(rho - 1) and self.entails(m - rho - 1):
            return False
        if self.entails(-rho - 1) and self.entails(m + rho - 1):
            return False
        return None

    def _divisor_candidates(self, e: Lin) -> List[Lin]:
        """Moduli worth testing in the contrapositive divisibility rule:
        the declared multiple-of facts for symbols appearing in *e*,
        plus the constant 2 (parity)."""
        syms = set(e.symbols)
        out: List[Lin] = [const(2)]
        for decl_sym, decl_mod in self.multiples:
            if decl_sym in syms and decl_mod not in out:
                out.append(decl_mod)
        return out


# ---------------------------------------------------------------------------
# Affine interval sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """Closed interval ``[lo, hi]`` with affine endpoints.

    Empty when ``hi < lo`` — emptiness is context-dependent and decided
    against an :class:`Env`.
    """

    lo: Lin
    hi: Lin

    @staticmethod
    def make(lo: LinLike, hi: LinLike) -> "Interval":
        return Interval(Lin.of(lo), Lin.of(hi))

    def shift(self, delta: LinLike) -> "Interval":
        d = Lin.of(delta)
        return Interval(self.lo + d, self.hi + d)

    def contains(self, env: Env, x: LinLike) -> bool:
        """Provably ``lo <= x <= hi``."""
        p = Lin.of(x)
        return env.entails(p - self.lo) and env.entails(self.hi - p)

    def excludes(self, env: Env, x: LinLike) -> bool:
        """Provably ``x < lo`` or ``x > hi`` (or provably empty)."""
        p = Lin.of(x)
        if env.entails_lt(p, self.lo) or env.entails_lt(self.hi, p):
            return True
        return env.entails_lt(self.hi, self.lo)  # empty interval

    def length(self, env: Env) -> Optional[Lin]:
        """``hi - lo + 1`` if provably nonempty, 0 if provably empty."""
        size = self.hi - self.lo + 1
        if env.entails(size - 1):
            return size
        if env.entails(-size):
            return const(0)
        return None

    def disjoint(self, env: Env, other: "Interval") -> bool:
        return (
            env.entails_lt(self.hi, other.lo)
            or env.entails_lt(other.hi, self.lo)
            or env.entails_lt(self.hi, self.lo)
            or env.entails_lt(other.hi, other.lo)
        )

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


@dataclass(frozen=True)
class SymSet:
    """A finite union of affine intervals."""

    intervals: Tuple[Interval, ...] = ()

    @staticmethod
    def make(*intervals: Interval) -> "SymSet":
        return SymSet(tuple(intervals))

    def shift(self, delta: LinLike) -> "SymSet":
        return SymSet(tuple(iv.shift(delta) for iv in self.intervals))

    def union(self, other: "SymSet") -> "SymSet":
        return SymSet(self.intervals + other.intervals)

    def contains(self, env: Env, x: LinLike) -> bool:
        return any(iv.contains(env, x) for iv in self.intervals)

    def excludes(self, env: Env, x: LinLike) -> bool:
        return all(iv.excludes(env, x) for iv in self.intervals)

    def cardinality(self, env: Env) -> Optional[Lin]:
        """Exact element count: sum of lengths of pairwise-disjoint
        intervals. None unless every length and disjointness is
        provable."""
        lengths: List[Lin] = []
        live: List[Interval] = []
        for iv in self.intervals:
            n = iv.length(env)
            if n is None:
                return None
            if n != const(0):
                live.append(iv)
                lengths.append(n)
        for i, a in enumerate(live):
            for b in live[i + 1 :]:
                if not a.disjoint(env, b):
                    return None
        total = const(0)
        for n in lengths:
            total = total + n
        return total

    def __str__(self) -> str:
        if not self.intervals:
            return "{}"
        return " ∪ ".join(str(iv) for iv in self.intervals)


# ---------------------------------------------------------------------------
# Mod-P offset sets (ring invariants)
# ---------------------------------------------------------------------------

#: Shifts examined when testing membership modulo P. Canonical offsets
#: are confined to [-(P-1), P-1], so |x - y| <= 2(P-1) < 2P and shifts
#: beyond ±2 can never land inside another canonical interval; the
#: window is deliberately one wider on each side than necessary.
_WRAP_WINDOW = (-2, -1, 0, 1, 2)


@dataclass(frozen=True)
class RingSet:
    """A union of affine intervals of chunk *offsets* interpreted mod P.

    Offsets are rank-relative: offset d at rank r denotes chunk
    ``(r + d) mod P``. Canonical form requires every interval to sit
    inside ``[-(P-1), P-1]`` under the env — checked at construction so
    that modular membership/exclusion only needs the fixed
    ``_WRAP_WINDOW`` of ±kP shifts (completeness of exclusion would
    otherwise be unsound).
    """

    period: Lin
    points: SymSet
    env_checked: bool = field(default=False, compare=False)

    @staticmethod
    def make(env: Env, period: LinLike, *intervals: Interval) -> "RingSet":
        p = Lin.of(period)
        for iv in intervals:
            lo_ok = env.entails(iv.lo + p - 1)  # lo >= -(P-1)
            hi_ok = env.entails(p - 1 - iv.hi)  # hi <= P-1
            empty = env.entails_lt(iv.hi, iv.lo)
            if not ((lo_ok and hi_ok) or empty):
                raise AbstractDomainError(
                    f"interval {iv} not provably within ±({p} - 1); "
                    f"RingSet requires canonical offsets"
                )
        return RingSet(p, SymSet(tuple(intervals)), True)

    def contains(self, env: Env, offset: LinLike) -> bool:
        """Provably a member modulo P (offset canonical)."""
        x = Lin.of(offset)
        self._require_canonical(env, x)
        return any(
            self.points.contains(env, x + self.period.scale(k))
            for k in _WRAP_WINDOW
        )

    def excludes(self, env: Env, offset: LinLike) -> bool:
        """Provably NOT a member modulo P (offset canonical).

        Complete because both the set and the offset are canonical:
        every representative ``offset + kP`` outside the window lies
        outside ``[-(2P-2), 2P-2]`` and cannot meet any canonical
        interval.
        """
        x = Lin.of(offset)
        self._require_canonical(env, x)
        return all(
            self.points.excludes(env, x + self.period.scale(k))
            for k in _WRAP_WINDOW
        )

    def cardinality(self, env: Env) -> Optional[Lin]:
        """Element count modulo P: requires pairwise disjointness of
        all window-shifted representatives."""
        base = self.points.cardinality(env)
        if base is None:
            return None
        ivs = list(self.points.intervals)
        for i, a in enumerate(ivs):
            for b in ivs[i + 1 :] + [a]:
                for k in _WRAP_WINDOW:
                    if k == 0 and a is not b:
                        continue  # un-shifted pair handled by cardinality()
                    if k == 0:
                        continue
                    if not a.shift(self.period.scale(k)).disjoint(env, b):
                        return None
        return base

    def _require_canonical(self, env: Env, x: Lin) -> None:
        if not (
            env.entails(x + self.period - 1) and env.entails(self.period - 1 - x)
        ):
            raise AbstractDomainError(
                f"offset {x} not provably within ±({self.period} - 1)"
            )

    def __str__(self) -> str:
        return f"{self.points} (mod {self.period})"
