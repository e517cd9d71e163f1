"""Inductive certificate checker: parametric all-P schedule proofs.

This module turns the certificate declarations on the collective
generators (:mod:`repro.collectives.certificates`) into machine-checked
proof obligations over the exact symbolic domain of
:mod:`repro.analysis.abstract`, and cross-validates every certificate
against the concrete provenance verifier so the abstract semantics can
never silently diverge from the executable one.

A certificate for a ring-based schedule is checked in four layers:

1. **Invariant induction** — base case (post-scatter ownership), one
   symbolic ring step (the received offset is provably new for the
   tuned ring / provably redundant in the enclosed ring's endgame, and
   the ownership interval extends by exactly one element), and the
   postcondition (cardinality exactly P: full dissemination). All
   obligations are entailments in symbolic ``P, e, s`` discharged with
   exact integer/rational arithmetic — a pass holds for every P >= 2.
2. **Role lemma** — the paper's tuned-ring role table
   (``tuned_ring_role``) is *derived*: using the divisibility layer
   (rank = odd-multiple-of-lowbit decomposition, power-of-two mask
   chain), the checker proves that send-only endpoints are exactly the
   ranks with scatter extent >= 2 (role step = own extent) and
   receive-only endpoints exactly the extent-1 ranks (role step =
   right neighbour's extent) — including the mask-clamping and the
   ring-wrap rank.
3. **Pairing / deadlock-freedom** — each rank's skipped sends line up
   exactly with its right neighbour's skipped receives, so every posted
   receive has a matching same-step send on the ring edge: the step
   pattern is a perfect per-step matching and the sendrecv loop cannot
   deadlock.
4. **Counting** — per-role transfer counts are summed into the paper's
   theorems: the enclosed ring moves ``P*(P-1)`` messages of which
   exactly ``S-P`` are redundant; the tuned ring moves
   ``P*(P-1)-(S-P)`` with zero redundancy; savings are exactly ``S-P``
   (12 at P=8, 15 at P=10). The paper's instances are evaluated on
   :mod:`repro.core.traffic`, the one closed form of these counts, and
   cross-validation holds every executed ring to it.

Obligations that rest on a structural induction or a finite-universe
counting rule (rather than a single entailment) are labelled
``structural`` and are exactly the ones the concrete cross-validation
backs bit-for-bit at every ``P`` in the configured range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..collectives.certificates import (
    CERTIFICATES,
    UNCERTIFIED,
    RingPhase,
    ScatterPhase,
)
from ..collectives.relative import relative_rank, subtree_chunks, tuned_ring_role
from ..collectives.schedule import extract_schedule
from ..errors import ConfigurationError
from ..util.chunking import chunk_count, scatter_size
from ..core.traffic import (
    ring_bytes_native,
    ring_bytes_tuned,
    ring_transfers_native,
    ring_transfers_tuned,
    subtree_sum,
    transfers_saved,
)
from .abstract import Env, Interval, Lin, RingSet, const, var
from .verify import REGISTRY, verify_provenance

__all__ = [
    "Obligation",
    "CertificateReport",
    "ProveReport",
    "prove_collective",
    "prove_all",
    "crossvalidate_certificate",
    "crossvalidate_roles",
    "predicted_role",
    "predicted_ring_ownership",
    "predicted_redundant_exact",
    "DEFAULT_XVAL_RANGE",
]

#: Cross-validation range required by the certificate contract: every
#: certified collective is compared bit-for-bit against the concrete
#: provenance verifier at each P in this inclusive range.
DEFAULT_XVAL_RANGE = (2, 64)

#: The paper's published instances: P -> (savings, native ring, tuned ring).
PAPER_CASES: Dict[int, Tuple[int, int, int]] = {8: (12, 56, 44), 10: (15, 90, 75)}


# ---------------------------------------------------------------------------
# Obligation ledger
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Obligation:
    """One checked proof step.

    ``status`` is ``proved`` (discharged by the symbolic engine),
    ``structural`` (an induction/counting rule whose side conditions
    were discharged symbolically and whose conclusion is concretely
    cross-validated), or ``failed``.
    """

    oid: str
    statement: str
    method: str
    status: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "failed"

    def to_dict(self) -> Dict[str, str]:
        return {
            "id": self.oid,
            "statement": self.statement,
            "method": self.method,
            "status": self.status,
            "detail": self.detail,
        }


class _Prover:
    """Accumulates obligations; every check records an entry, pass or
    fail — no silent skips."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self.obligations: List[Obligation] = []

    def _record(
        self, oid: str, statement: str, method: str, ok: bool, detail: str = ""
    ) -> bool:
        self.obligations.append(
            Obligation(
                oid=f"{self.prefix}.{oid}",
                statement=statement,
                method=method,
                status="proved" if ok else "failed",
                detail=detail,
            )
        )
        return ok

    def entails(self, oid: str, statement: str, env: Env, fact: Lin) -> bool:
        ok = env.entails(fact)
        return self._record(oid, statement, "linear-arithmetic", ok)

    def entails_eq(self, oid: str, statement: str, env: Env, a: Lin, b: Lin) -> bool:
        ok = env.entails_eq(a, b)
        return self._record(oid, statement, "linear-arithmetic", ok)

    def member(
        self, oid: str, statement: str, env: Env, s: RingSet, offset: Lin
    ) -> bool:
        ok = s.contains(env, offset)
        return self._record(oid, statement, "interval-membership", ok)

    def excluded(
        self, oid: str, statement: str, env: Env, s: RingSet, offset: Lin
    ) -> bool:
        ok = s.excludes(env, offset)
        return self._record(oid, statement, "interval-membership", ok)

    def cardinality(
        self, oid: str, statement: str, env: Env, s: RingSet, expected: Lin
    ) -> bool:
        got = s.cardinality(env)
        ok = got is not None and env.entails_eq(got, expected)
        detail = "" if got is not None else "cardinality not provable"
        return self._record(oid, statement, "interval-cardinality", ok, detail)

    def divisibility(
        self,
        oid: str,
        statement: str,
        env: Env,
        expr: Lin,
        modulus: Lin,
        expect: bool,
    ) -> bool:
        got = env.divisibility(expr, modulus)
        ok = got is expect
        detail = "" if got is not None else "divisibility undecidable"
        return self._record(oid, statement, "divisibility", ok, detail)

    def structural(self, oid: str, statement: str, detail: str) -> bool:
        self.obligations.append(
            Obligation(
                oid=f"{self.prefix}.{oid}",
                statement=statement,
                method="structural-induction",
                status="structural",
                detail=detail,
            )
        )
        return True

    def check(self, oid: str, statement: str, method: str, ok: bool, detail: str = "") -> bool:
        return self._record(oid, statement, method, ok, detail)


# ---------------------------------------------------------------------------
# Symbolic layer 1: ring invariant induction
# ---------------------------------------------------------------------------


def _ring_invariant(env: Env, P: Lin, s_expr: Lin, cap: Lin, e: Lin) -> RingSet:
    """own(s) = [-min(s, cap), e-1] mod P; caller's env must pin which
    branch of the min applies."""
    return RingSet.make(env, P, Interval.make(-s_expr, e - 1))


def _prove_ring_invariant(pr: _Prover, tuned: bool, seeded: bool) -> None:
    """Base + step + postcondition for one ring family.

    Two rank families cover every rank (their union is exhaustive by
    the role lemma's extent dichotomy): extent e == 1 ranks receive at
    all P-1 steps; extent e >= 2 ranks (only present when seeded by a
    scatter) receive at steps 1..P-e and are saturated after.
    """
    P, e, s = var("P"), var("e"), var("s")
    G = Env().assume(P - 2)

    families: List[Tuple[str, Env, Lin]] = [("e1", G.assume(e - 1, 1 - e), e)]
    if seeded:
        families.append(("ewide", G.assume(e - 2, P - e), e))

    for fam, fenv, ext in families:
        cap = P - ext  # receiving steps: 1..P-e (== P-1 when e == 1)

        # Base case: own(0) = [0, e-1], the post-scatter run.
        base_env = fenv
        base = RingSet.make(base_env, P, Interval.make(const(0), ext - 1))
        pr.cardinality(
            f"ring.{fam}.base",
            f"base ownership [0, e-1] has exactly e chunks (family {fam})",
            base_env,
            base,
            ext,
        )

        # Receiving step: 1 <= s <= P-e.
        renv = fenv.assume(s - 1, cap - s)
        own_prev = _ring_invariant(renv, P, s - 1, cap, ext)
        own_now = _ring_invariant(renv, P, s, cap, ext)
        pr.excluded(
            f"ring.{fam}.step.new",
            "received offset -s is not yet owned: own(s-1) excludes -s "
            f"for 1 <= s <= P-e (family {fam})",
            renv,
            own_prev,
            -s,
        )
        pr.member(
            f"ring.{fam}.step.gain",
            f"own(s) contains the received offset -s (family {fam})",
            renv,
            own_now,
            -s,
        )
        # own(s) = own(s-1) ∪ {-s} exactly: superset + cardinality + 1.
        pr.entails(
            f"ring.{fam}.step.mono",
            f"own(s-1) ⊆ own(s): interval only extends downward (family {fam})",
            renv,
            (-(s - 1)) - (-s),
        )
        got_prev = own_prev.cardinality(renv)
        got_now = own_now.cardinality(renv)
        pr.check(
            f"ring.{fam}.step.count",
            "|own(s)| = |own(s-1)| + 1: the step adds exactly one chunk "
            f"(family {fam})",
            "interval-cardinality",
            got_prev is not None
            and got_now is not None
            and renv.entails_eq(got_now, got_prev + 1),
        )

        # Sent offset is owned (provenance): sends split at the wrap.
        send_ranges = [
            ("early", fenv.assume(s - 1, cap + 1 - s), s - 1),
            ("late", fenv.assume(s - cap - 2, P - 1 - s), const(0) - 0),
        ]
        for tag_, senv, prev_lo in send_ranges:
            prev_cap_expr = prev_lo if tag_ == "early" else cap
            own_before = _ring_invariant(senv, P, prev_cap_expr, cap, ext)
            pr.member(
                f"ring.{fam}.send.{tag_}",
                "sent offset -(s-1) is owned at issue time "
                f"({tag_} steps, family {fam})",
                senv,
                own_before,
                -(s - 1),
            )

        # Saturated steps: P-e+1 <= s <= P-1 (empty range when e == 1).
        satenv = fenv.assume(s - cap - 1, P - 1 - s)
        own_sat = _ring_invariant(satenv, P, cap, cap, ext)
        pr.cardinality(
            f"ring.{fam}.saturated.full",
            "after P-e receives the rank owns all P chunks "
            f"(family {fam})",
            satenv,
            own_sat,
            P,
        )
        if not tuned:
            pr.member(
                f"ring.{fam}.saturated.redundant",
                "enclosed ring: the offset -s received at a saturated "
                f"step is provably already owned (family {fam})",
                satenv,
                own_sat,
                -s,
            )

        # Postcondition: own(P-1) covers all P chunks.
        post_env = fenv.assume(s - 1, P - 1 - s).assume_eq(s, P - 1)
        own_final = _ring_invariant(post_env, P, cap, cap, ext)
        pr.cardinality(
            f"ring.{fam}.post",
            f"postcondition: own(P-1) = all P chunks (family {fam})",
            post_env,
            own_final,
            P,
        )

    pr.structural(
        "ring.families.exhaustive",
        "every rank falls in exactly one family (e == 1 or 2 <= e <= P): "
        "extent dichotomy from the role lemma",
        "backed bit-for-bit by cross-validation over the full P range",
    )


# ---------------------------------------------------------------------------
# Symbolic layer 2: the tuned-ring role lemma
# ---------------------------------------------------------------------------


def _prove_role_lemma(pr: _Prover) -> None:
    """Derive ``tuned_ring_role`` from the binomial-scatter structure.

    Rank decomposition (relative coordinates, P >= 2):

    * root:  rel = 0                          -> flag 0, step = P = extent
    * wrap:  rel = P-1                        -> flag 1, step = P = extent(0)
    * even:  rel = u + m, u ≡ 0 (mod 2m), pof2 m >= 2, rel <= P-2
                                              -> flag 0, step = extent(rel)
    * odd:   rel+1 = w + n, w ≡ 0 (mod 2n), pof2 n >= 2, rel+1 <= P-1
                                              -> flag 1, step = extent(rel+1)

    The scan in ``tuned_ring_role`` walks masks downward from
    ``next_power_of_two(P)`` and fires flag 1 when the *right
    neighbour* is divisible first, else flag 0 when the rank itself is;
    each proof below pins where the scan first fires.
    """
    P, m, u, M, n, w = (var(x) for x in ("P", "m", "u", "M", "n", "w"))

    # --- even family: rel = u + m --------------------------------------
    even = (
        Env()
        .with_pof2("m", "M")
        .with_multiple("u", 2 * m)
        .assume(P - 2, u, m - 2, P - 2 - u - m)
    )
    rel = u + m
    pr.divisibility(
        "role.even.fires",
        "even rank u+m (lowbit m): rel ≡ 0 (mod m), so flag 0 fires at mask m",
        even,
        rel,
        m,
        True,
    )
    pr.divisibility(
        "role.even.right_quiet",
        "right neighbour u+m+1 ≢ 0 (mod m): flag 1 does not pre-empt at mask m",
        even,
        rel + 1,
        m,
        False,
    )
    above = even.assume(M - m - 1)
    pr.divisibility(
        "role.even.no_higher_self",
        "no pof2 mask M > m divides u+m: the scan cannot fire flag 0 earlier",
        above,
        rel,
        M,
        False,
    )
    pr.divisibility(
        "role.even.no_higher_right",
        "no pof2 mask M > m divides u+m+1: the scan cannot fire flag 1 earlier",
        above,
        rel + 1,
        M,
        False,
    )
    # step = (m if rel+m <= P else P-rel) agrees with extent = min(m, P-rel).
    fits, clamped = even.split(P - rel - m)
    pr.entails(
        "role.even.step_fits",
        "unclamped branch: step m is exactly min(m, P-rel) when rel+m <= P",
        fits,
        (P - rel) - m,
    )
    pr.entails(
        "role.even.step_clamped",
        "clamped branch: step P-rel is exactly min(m, P-rel) when rel+m > P",
        clamped,
        m - (P - rel) - 1,
    )
    pr.entails(
        "role.even.extent_wide.fits",
        "even ranks have extent >= 2 (unclamped branch: m >= 2)",
        fits,
        m - 2,
    )
    pr.entails(
        "role.even.extent_wide.clamped",
        "even ranks have extent >= 2 (clamped branch: P-rel >= 2)",
        clamped,
        (P - rel) - 2,
    )

    # --- odd family: rel + 1 = w + n -----------------------------------
    odd = (
        Env()
        .with_pof2("n", "M")
        .with_multiple("w", 2 * n)
        .assume(P - 2, w, n - 2, P - 1 - w - n, w + n - 2)  # 2 <= rel+1 <= P-1
    )
    q = w + n  # rel + 1
    pr.divisibility(
        "role.odd.fires",
        "odd rank's right neighbour w+n (lowbit n): flag 1 fires at mask n",
        odd,
        q,
        n,
        True,
    )
    above_o = odd.assume(M - n - 1)
    pr.divisibility(
        "role.odd.no_higher_right",
        "no pof2 mask M > n divides w+n: flag 1 cannot fire earlier",
        above_o,
        q,
        M,
        False,
    )
    pr.divisibility(
        "role.odd.no_higher_self",
        "no pof2 mask M > n divides w+n-1: flag 0 cannot fire earlier",
        above_o,
        q - 1,
        M,
        False,
    )
    pr.divisibility(
        "role.odd.rank_odd",
        "rel = w+n-1 is odd: lowbit 1, so the rank's extent is 1",
        odd,
        q - 1,
        const(2),
        False,
    )
    fits_o, clamped_o = odd.split(P - q - n)
    pr.entails(
        "role.odd.step_fits",
        "step n equals extent(rel+1) = min(n, P-(rel+1)) (unclamped)",
        fits_o,
        (P - q) - n,
    )
    pr.entails(
        "role.odd.step_clamped",
        "step P-(rel+1) equals extent(rel+1) (clamped)",
        clamped_o,
        n - (P - q) - 1,
    )

    # --- root and ring-wrap rank ---------------------------------------
    top = Env().with_pof2("M").assume(P - 2, M - P, 2 * P - 2 - M)
    M0 = var("M")
    pr.divisibility(
        "role.root.fires",
        "root (rel 0): right neighbour 1 ≢ 0 (mod M0 >= P >= 2), and "
        "0 ≡ 0 trivially: flag 0 fires at the top mask",
        top,
        const(1),
        M0,
        False,
    )
    fits_r, clamped_r = top.split(P - M0)
    pr.entails(
        "role.root.step_fits",
        "root step = M0 = P when the top mask fits (P a power of two)",
        fits_r,
        P - M0,
    )
    pr.entails(
        "role.root.step_clamped",
        "root step clamps to P - 0 = P when M0 > P",
        clamped_r,
        M0 - P - 1,
    )
    pr.structural(
        "role.wrap",
        "rank P-1: its right neighbour is rank 0 and 0 ≡ 0 (mod M0), so "
        "flag 1 fires at the very first mask with step min(M0, P-0) = P "
        "= extent(0); the rank's own extent is min(lowbit, 1) = 1",
        "0 mod anything vanishes; step clamp mirrors role.root.step_*",
    )

    pr.structural(
        "role.exhaustive",
        "every rank 1 <= rel <= P-2 decomposes uniquely as an odd "
        "multiple of its lowest set bit (binary decomposition), so the "
        "four families cover all ranks",
        "backed concretely: tuned_ring_role is re-derived rank-by-rank "
        "over the full cross-validation range",
    )


def _prove_pairing(pr: _Prover) -> None:
    """Deadlock-freedom: skipped sends and skipped receives pair up.

    A flag-0 rank of extent e skips receives exactly at steps
    ``s > P-e``; its *left* neighbour is an extent-1 rank (adjacency:
    two neighbours cannot both have extent >= 2) whose flag-1 step is
    the right neighbour's extent e — it skips sends exactly at
    ``s > P-e``. Every other edge runs full duplex at every step. With
    posting unconditional on entering a step, the per-step communication
    graph is a perfect matching on active edges: no posted operation
    ever waits on an operation that is never posted.
    """
    P, e, s = var("P"), var("e"), var("s")
    G = Env().assume(P - 2, e - 2, P - e)
    # The skip windows coincide: s > P - e on both sides of the edge.
    pr.entails_eq(
        "pair.window",
        "receiver skip window (s > P-e for extent-e flag 0) equals the "
        "left neighbour's send skip window (flag 1 with step e)",
        G.assume(s - (P - e) - 1, P - 1 - s),
        (P - e) - (P - e),
        const(0),
    )
    pr.entails(
        "pair.window.nonempty",
        "the shared skip window has exactly e-1 >= 1 steps",
        G,
        ((P - 1) - (P - e)) - 1,
    )
    pr.entails_eq(
        "pair.window.size",
        "skipped steps per endpoint pair: (P-1) - (P-e) = e-1",
        G,
        (P - 1) - (P - e),
        e - 1,
    )
    pr.structural(
        "pair.adjacency",
        "no two ring neighbours both have extent >= 2: an extent >= 2 "
        "rank is even (or the root), so its successor is odd (or the "
        "wrap rank) with extent 1 — proved in role.odd.rank_odd / "
        "role.wrap",
        "the flag-1 left neighbour of every flag-0 rank therefore "
        "carries step = that rank's extent (role lemma), aligning the "
        "skip windows edge by edge",
    )
    pr.structural(
        "pair.matching",
        "per-step perfect matching: at every step s each posted send "
        "(rank active as sender) has its receiver active, and vice "
        "versa; sendrecv posts both halves on entering the step, so the "
        "dependency graph per step is acyclic — the ring cannot deadlock",
        "backed by the rendezvous analyzer pass of `repro verify` at "
        "sampled P and by cross-validated role activity windows",
    )


# ---------------------------------------------------------------------------
# Symbolic layer 3: scatter certificate
# ---------------------------------------------------------------------------


def _prove_scatter(pr: _Prover) -> None:
    """Binomial scatter: every relative rank ends with exactly its
    subtree run ``[rel, rel + extent)``.

    Induction over the split sequence: a holder of span
    ``[rel, rel + span)`` with ``span = min(2c, P-rel)`` hands
    ``[rel+c, rel+c+extent(rel+c))`` to the child at offset c and keeps
    ``[rel, rel+c)`` — the split identity ``span = c + child_extent``
    makes the hand-off exact (no chunk lost, none duplicated), and the
    divisibility layer pins ``lowbit(rel+c) = c`` so the child's
    declared extent equals ``subtree_chunks(rel+c)``.
    """
    P, c, r = var("P"), var("c"), var("r")
    # Holder r splitting at pof2 mask c: r ≡ 0 (mod 2c), child r+c < P.
    env = (
        Env()
        .with_pof2("c", "M")
        .with_multiple("r", 2 * c)
        .assume(P - 2, r, c - 1, P - 1 - r - c)
    )
    child = r + c
    # Split identity: min(2c, P-r) = c + min(c, P-r-c), by case split.
    wide, narrow = env.split(P - r - 2 * c)
    pr.entails_eq(
        "scatter.split.wide",
        "span 2c splits into c + c when the full doubled span fits",
        wide,
        2 * c,
        c + c,
    )
    pr.entails_eq(
        "scatter.split.narrow",
        "span P-r splits into c + (P-r-c) when clamped by the tail",
        narrow,
        P - r,
        c + (P - r - c),
    )
    pr.entails(
        "scatter.split.child_nonempty",
        "the child span min(c, P-r-c) is nonempty: c >= 1 and r+c <= P-1",
        env,
        P - 1 - r - c + 1 - 1,
    )
    # Child lowbit: r ≡ 0 (mod 2c) makes r+c an odd multiple of c.
    pr.divisibility(
        "scatter.child.lowbit_divides",
        "child rank r+c ≡ 0 (mod c)",
        env,
        child,
        c,
        True,
    )
    pr.divisibility(
        "scatter.child.lowbit_exact",
        "child rank r+c ≢ 0 (mod 2c): its lowest set bit is exactly c",
        env,
        child,
        2 * c,
        False,
    )
    above = env.assume(var("M") - c - 1)
    pr.divisibility(
        "scatter.child.no_higher",
        "no pof2 M > c divides r+c: the child's parent link (subtract "
        "lowbit) points back at r",
        above,
        child,
        var("M"),
        False,
    )
    pr.structural(
        "scatter.induction",
        "induction over the split sequence: the root holds [0, P) (base),"
        " every split conserves the span exactly (scatter.split.*), and "
        "each child's retained run is [child, child+extent) with extent "
        "= subtree_chunks(child) (scatter.child.*); hence the "
        "postcondition: rank rel owns exactly [rel, rel+extent(rel))",
        "backed bit-for-bit by cross-validated post-scatter ownership",
    )
    pr.structural(
        "scatter.count",
        "each of the P-1 non-root ranks receives exactly one message "
        "(its subtree run), so the scatter issues exactly P-1 transfers "
        "when every chunk carries bytes",
        "cardinality of the non-root rank set; concrete counts "
        "cross-validated, with the uniform-chunk precondition recorded",
    )


# ---------------------------------------------------------------------------
# Symbolic layer 4: counting — the paper's theorems as corollaries
# ---------------------------------------------------------------------------


def _prove_counts(pr: _Prover, tuned: bool, seeded: bool) -> Dict[str, Any]:
    """Transfer-count chain; returns the corollary table."""
    P, e, f = var("P"), var("e"), var("f")
    G = Env().assume(P - 2)

    corollaries: Dict[str, Any] = {}
    if not tuned:
        pr.entails_eq(
            "count.per_rank",
            "enclosed ring: every rank sends at all P-1 steps",
            G,
            P - 1,
            P - 1,
        )
        pr.structural(
            "count.total_native",
            "P identical per-rank counts sum to P*(P-1) ring transfers",
            "rank-independent per-rank count multiplied by |ranks| = P; "
            "cross-validated exactly at every P in range",
        )
        corollaries["ring_transfers"] = "P*(P-1)"
        if seeded:
            pr.entails_eq(
                "count.redundant_per_rank",
                "enclosed ring: an extent-e rank receives exactly "
                "(P-1)-(P-e) = e-1 already-owned chunks",
                G.assume(e - 1, P - e),
                (P - 1) - (P - e),
                e - 1,
            )
            pr.structural(
                "count.redundant_total",
                "sum of (extent-1) over all ranks = S - P redundant "
                "transfers (definition of S)",
                "S = sum of extents; the sum telescopes against the rank "
                "count P; cross-validated exactly, including the "
                "non-uniform-chunk sizes where the closed form is waived",
            )
            corollaries["redundant"] = "S - P"
    else:
        pr.entails_eq(
            "count.flag0_sends",
            "send-only endpoints send at every step: P-1 sends",
            G.assume(e - 2, P - e),
            P - 1,
            P - 1,
        )
        pr.entails_eq(
            "count.flag1_sends",
            "receive-only endpoints skip f-1 sends: (P-1)-(f-1) issued",
            G.assume(f - 1, P - f),
            (P - 1) - (f - 1),
            P - f,
        )
        pr.structural(
            "count.skip_bijection",
            "skipped sends sum to S - P: each flag-1 rank skips "
            "extent(right)-1 sends; the right neighbours of flag-1 ranks "
            "cover every rank of extent >= 2 exactly once (adjacency), "
            "and extent-1 ranks contribute 0 — so the sum equals "
            "sum(extent-1) over all ranks = S - P",
            "role lemma + pair.adjacency; cross-validated exactly",
        )
        pr.structural(
            "count.total_tuned",
            "tuned ring transfers = P*(P-1) - (S-P)",
            "enclosed total minus the skipped-send sum; cross-validated "
            "exactly at every P in range",
        )
        corollaries["ring_transfers"] = "P*(P-1) - (S - P)"
        corollaries["redundant"] = "0"
        corollaries["savings"] = "S - P"

    # Pin the paper's numbers on the closed forms of core.traffic. Only
    # meaningful for scatter-seeded rings: plain allgather rings have
    # nothing redundant to save.
    if not seeded:
        return corollaries
    for Pn, (save, native_n, tuned_n) in sorted(PAPER_CASES.items()):
        S = subtree_sum(Pn)
        pr.check(
            f"count.paper_P{Pn}",
            f"paper corollary at P={Pn}: S={S}, savings S-P={save}, "
            f"ring {native_n}->{tuned_n}",
            "exact-evaluation",
            transfers_saved(Pn) == save == S - Pn
            and ring_transfers_native(Pn) == native_n == Pn * (Pn - 1)
            and ring_transfers_tuned(Pn) == tuned_n == Pn * (Pn - 1) - save,
        )
        corollaries[f"savings_P{Pn}"] = save
    return corollaries


# ---------------------------------------------------------------------------
# Concrete predictions (the certificate, instantiated at one P)
# ---------------------------------------------------------------------------


def predicted_role(rel: int, nranks: int) -> Tuple[str, int, int, int]:
    """``(kind, extent, recv_steps, send_steps)`` for the tuned ring,
    from the proven role lemma (not from ``tuned_ring_role``)."""
    e = subtree_chunks(rel, nranks)
    if e >= 2:
        return ("flag0", e, nranks - e, nranks - 1)
    f = subtree_chunks((rel + 1) % nranks, nranks)
    return ("flag1", 1, nranks - 1, nranks - f)


def predicted_ring_ownership(
    rel: int, extent: int, received: int, nranks: int
) -> List[int]:
    """Chunks owned after *received* ring deliveries: the instantiated
    invariant ``[rel - min(received, P-e), rel + e - 1] mod P``."""
    lo = rel - min(received, nranks - extent)
    hi = rel + extent - 1
    return sorted({x % nranks for x in range(lo, hi + 1)})


def predicted_redundant_exact(nranks: int, nbytes: int) -> int:
    """Exact enclosed-ring redundancy at any size: per rank, the
    nonempty chunks among ``[rel+1, rel+extent)`` (already owned from
    the scatter, redelivered by the ring)."""
    total = 0
    for rel in range(nranks):
        e = subtree_chunks(rel, nranks)
        for c in range(rel + 1, rel + e):
            if chunk_count(nbytes, nranks, c % nranks) > 0:
                total += 1
    return total


def _empty_chunks(nranks: int, nbytes: int) -> List[int]:
    return [i for i in range(nranks) if chunk_count(nbytes, nranks, i) == 0]


def _predicted_scatter_sends(
    rel: int, nranks: int, nbytes: int
) -> List[Tuple[int, ...]]:
    """Chunk tuples this rank forwards, in issue (largest-mask) order,
    zero-byte spans skipped — mirrors the certified split sequence."""
    if rel == 0:
        mask = 1
        while mask < nranks:
            mask <<= 1
    else:
        mask = rel & (-rel)
    out: List[Tuple[int, ...]] = []
    c = mask >> 1
    while c > 0:
        child = rel + c
        if child < nranks:
            ext = min(c, nranks - child)
            span = tuple(range(child, child + ext))
            if any(chunk_count(nbytes, nranks, x) > 0 for x in span):
                out.append(span)
        c >>= 1
    return out


# ---------------------------------------------------------------------------
# Cross-validation against the concrete verifier
# ---------------------------------------------------------------------------


def crossvalidate_roles(lo: int = 2, hi: int = 64) -> List[str]:
    """Re-derive ``tuned_ring_role`` from the role lemma at every rank
    and P; any disagreement is a proof-layer bug."""
    failures: List[str] = []
    for P in range(lo, hi + 1):
        for rel in range(P):
            kind, extent, _recv, send_steps = predicted_role(rel, P)
            step, flag = tuned_ring_role(rel, P)
            want_flag = 1 if kind == "flag1" else 0
            want_step = extent if kind == "flag0" else (P - send_steps)
            if flag != want_flag or step != want_step:
                failures.append(
                    f"P={P} rel={rel}: tuned_ring_role -> (step={step}, "
                    f"flag={flag}), role lemma -> (step={want_step}, "
                    f"flag={want_flag})"
                )
    return failures


def crossvalidate_certificate(
    name: str,
    nranks: int,
    nbytes: int = 65536,
    root: int = 0,
) -> List[str]:
    """Compare the certificate's predictions bit-for-bit against the
    executed schedule and the concrete provenance verifier at one P.

    Checks, per rank and per step: delivered chunk ids, the full
    ownership set after every delivery, send activity windows, phase
    transfer counts, redundancy count, and the final ownership sets;
    the ring's transfers, and a seeded ring's wire bytes, must equal the
    closed forms of :mod:`repro.core.traffic`.
    Returns a list of mismatch descriptions (empty = validated).
    """
    cert = CERTIFICATES.get(name)
    if cert is None:
        raise ConfigurationError(f"no certificate declared for {name!r}")
    spec = REGISTRY[name]
    if not spec.supports(nranks):
        return []
    failures: List[str] = []

    schedule = extract_schedule(nranks, spec.build(nranks, nbytes, root))
    assert spec.initial_owned is not None and spec.expected_final is not None
    initial = spec.initial_owned(nranks, nbytes, root)
    expected_final = spec.expected_final(nranks, nbytes, root)
    violations, redundant, final_owned = verify_provenance(
        schedule, initial, expected_final
    )
    for v in violations:
        failures.append(f"concrete verifier violation: {v.detail}")

    ring_phase: Optional[RingPhase] = None
    scatter_phase: Optional[ScatterPhase] = None
    for ph in cert.phases:
        if isinstance(ph, RingPhase):
            ring_phase = ph
        elif isinstance(ph, ScatterPhase):
            scatter_phase = ph

    def to_rel(g: int) -> int:
        return relative_rank(g, root, nranks) if cert.relative_chunks else g

    empties = _empty_chunks(nranks, nbytes) if cert.relative_chunks else []
    if not cert.relative_chunks and name == "allgather_ring":
        if scatter_size(nbytes, nranks) == 0:
            # Degenerate zero-block case: everything vacuously owned.
            return failures

    # Per-receiver inbound queues per phase (per-channel FIFO order is
    # the receiver's completion order: one sender per ring edge).
    ring_in: Dict[int, List[Any]] = {g: [] for g in range(nranks)}
    ring_out: Dict[int, List[Any]] = {g: [] for g in range(nranks)}
    scatter_in: Dict[int, List[Any]] = {g: [] for g in range(nranks)}
    scatter_out: Dict[int, List[Any]] = {g: [] for g in range(nranks)}
    for send in schedule.sends:
        if ring_phase is not None and send.tag == ring_phase.tag:
            ring_in[send.dst].append(send)
            ring_out[send.src].append(send)
        elif scatter_phase is not None and send.tag == scatter_phase.tag:
            scatter_in[send.dst].append(send)
            scatter_out[send.src].append(send)

    expected_ring_sends = 0
    for g in range(nranks):
        rel = to_rel(g)
        if ring_phase is None:
            extent = subtree_chunks(rel, nranks)
        elif ring_phase.seeded:
            extent = subtree_chunks(rel, nranks)
        else:
            extent = 1

        # --- scatter phase -------------------------------------------
        if scatter_phase is not None:
            inbound = scatter_in[g]
            if rel == 0:
                if inbound:
                    failures.append(f"rank {g}: root received a scatter message")
            elif len(inbound) > 1:
                failures.append(
                    f"rank {g}: {len(inbound)} scatter messages, certified 1"
                )
            else:
                span = set(range(rel, rel + extent))
                got = set(inbound[0].chunks) if inbound else set()
                want = {c for c in span if chunk_count(nbytes, nranks, c) > 0}
                # The recorded message carries the whole span (possibly
                # including trailing empty ids) or is skipped when the
                # span carries no bytes at all.
                if inbound and got != span:
                    failures.append(
                        f"rank {g}: scatter delivered chunks {sorted(got)}, "
                        f"certified span {sorted(span)}"
                    )
                if not inbound and want:
                    failures.append(
                        f"rank {g}: scatter message missing for nonempty "
                        f"span {sorted(span)}"
                    )
            outs = [s.chunks for s in scatter_out[g]]
            want_outs = [
                tuple(c % nranks for c in span)
                for span in _predicted_scatter_sends(rel, nranks, nbytes)
            ]
            if [tuple(o) for o in outs] != want_outs:
                failures.append(
                    f"rank {g}: scatter forwarded {outs}, certified "
                    f"{want_outs}"
                )

        # --- ring phase ----------------------------------------------
        if ring_phase is not None:
            if ring_phase.tuned:
                kind, extent, recv_steps, send_steps = predicted_role(rel, nranks)
            else:
                kind = "native"
                recv_steps = nranks - 1
                send_steps = nranks - 1
            expected_ring_sends += send_steps

            inbound = ring_in[g]
            if len(inbound) != recv_steps:
                failures.append(
                    f"rank {g}: {len(inbound)} ring deliveries, certified "
                    f"{recv_steps}"
                )
            base = set(predicted_ring_ownership(rel, extent, 0, nranks))
            owned = set(base) | set(empties) if cert.relative_chunks else set(base)
            if rel == 0 and cert.relative_chunks and scatter_phase is not None:
                owned = set(range(nranks))  # broadcast root owns all
            for k, send in enumerate(inbound, start=1):
                want_chunk = (rel - k) % nranks
                if send.chunks != (want_chunk,):
                    failures.append(
                        f"rank {g}: ring delivery {k} carried {send.chunks}, "
                        f"certified chunk {want_chunk}"
                    )
                owned.add(want_chunk)
                predicted = set(
                    predicted_ring_ownership(rel, extent, k, nranks)
                )
                if cert.relative_chunks:
                    predicted |= set(empties)
                if rel == 0 and cert.relative_chunks and scatter_phase is not None:
                    predicted = set(range(nranks))
                if owned != predicted:
                    failures.append(
                        f"rank {g}: ownership after ring delivery {k} is "
                        f"{sorted(owned)}, certified {sorted(predicted)}"
                    )
            for k, send in enumerate(ring_out[g], start=1):
                want_chunk = (rel - k + 1) % nranks
                if send.chunks != (want_chunk,):
                    failures.append(
                        f"rank {g}: ring send {k} carried {send.chunks}, "
                        f"certified chunk {want_chunk}"
                    )
            if len(ring_out[g]) != send_steps:
                failures.append(
                    f"rank {g}: {len(ring_out[g])} ring sends, certified "
                    f"{send_steps}"
                )

        # --- final ownership -----------------------------------------
        want_final = expected_final[g]
        if set(final_owned[g]) != set(want_final) and name != "scatter":
            failures.append(
                f"rank {g}: final ownership {sorted(final_owned[g])} != "
                f"expected {sorted(want_final)}"
            )

    # --- global counts ---------------------------------------------------
    if ring_phase is not None:
        got_ring = sum(len(v) for v in ring_in.values())
        if ring_phase.tuned:
            want_ring = ring_transfers_tuned(nranks)
        else:
            want_ring = ring_transfers_native(nranks)
        if got_ring != want_ring:
            failures.append(
                f"ring transfers {got_ring}, certified {want_ring}"
            )
        if expected_ring_sends != want_ring and nranks > 1:
            failures.append(
                f"role-table ring sends {expected_ring_sends}, closed form "
                f"{want_ring}"
            )
    if ring_phase is not None and ring_phase.seeded:
        ring_bytes = ring_bytes_tuned if ring_phase.tuned else ring_bytes_native
        got_bytes = sum(send.nbytes for v in ring_in.values() for send in v)
        want_bytes = ring_bytes(nranks, nbytes)
        if got_bytes != want_bytes:
            failures.append(
                f"ring wire bytes {got_bytes}, closed form {want_bytes}"
            )
        want_red = predicted_redundant_exact(nranks, nbytes)
        if ring_phase.tuned:
            want_red = 0
        if len(redundant) != want_red:
            failures.append(
                f"redundant transfers {len(redundant)}, certified {want_red}"
            )
    elif ring_phase is not None or name == "scatter":
        if len(redundant) != 0:
            failures.append(
                f"redundant transfers {len(redundant)}, certified 0"
            )
    if scatter_phase is not None:
        got_scatter = sum(len(v) for v in scatter_in.values())
        uniform = nranks >= 1 and chunk_count(nbytes, nranks, nranks - 1) > 0
        if uniform and got_scatter != nranks - 1:
            failures.append(
                f"scatter transfers {got_scatter}, certified {nranks - 1}"
            )
    return failures


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class CertificateReport:
    """Outcome of checking one collective's certificate."""

    collective: str
    description: str
    obligations: List[Obligation]
    corollaries: Dict[str, Any]
    crossval_range: Tuple[int, int]
    crossval_points: int
    crossval_failures: List[str]
    crossval_skipped: bool = False

    @property
    def failed_obligations(self) -> List[Obligation]:
        return [o for o in self.obligations if not o.ok]

    @property
    def ok(self) -> bool:
        return not self.failed_obligations and not self.crossval_failures

    def to_dict(self) -> Dict[str, Any]:
        return {
            "collective": self.collective,
            "description": self.description,
            "ok": self.ok,
            "obligations": [o.to_dict() for o in self.obligations],
            "proved": sum(1 for o in self.obligations if o.status == "proved"),
            "structural": sum(
                1 for o in self.obligations if o.status == "structural"
            ),
            "failed": len(self.failed_obligations),
            "corollaries": self.corollaries,
            "crossval": {
                "range": list(self.crossval_range),
                "points": self.crossval_points,
                "failures": self.crossval_failures,
                "skipped": self.crossval_skipped,
            },
        }


@dataclass
class ProveReport:
    """Outcome of ``repro prove`` across the registry."""

    reports: List[CertificateReport] = field(default_factory=list)
    waived: Dict[str, str] = field(default_factory=dict)
    uncovered: List[str] = field(default_factory=list)
    stale_waivers: List[str] = field(default_factory=list)
    role_failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            all(r.ok for r in self.reports)
            and not self.uncovered
            and not self.stale_waivers
            and not self.role_failures
        )

    def ok_strict(self) -> bool:
        return self.ok and not any(r.crossval_skipped for r in self.reports)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "certified": [r.to_dict() for r in self.reports],
            "waived": dict(sorted(self.waived.items())),
            "uncovered": sorted(self.uncovered),
            "stale_waivers": sorted(self.stale_waivers),
            "role_crossval_failures": self.role_failures,
        }

    def describe(self) -> str:
        lines: List[str] = []
        for r in self.reports:
            proved = sum(1 for o in r.obligations if o.status == "proved")
            structural = sum(
                1 for o in r.obligations if o.status == "structural"
            )
            status = "ok" if r.ok else "FAILED"
            xval = (
                "crossval skipped"
                if r.crossval_skipped
                else (
                    f"crossval P in [{r.crossval_range[0]}, "
                    f"{r.crossval_range[1]}] at {r.crossval_points} points"
                )
            )
            lines.append(
                f"{r.collective}: {status} — {proved} proved, "
                f"{structural} structural, "
                f"{len(r.failed_obligations)} failed; {xval}"
            )
            for o in r.failed_obligations:
                lines.append(f"  FAILED {o.oid}: {o.statement}")
            for fdesc in r.crossval_failures[:10]:
                lines.append(f"  XVAL {fdesc}")
            if len(r.crossval_failures) > 10:
                lines.append(
                    f"  ... {len(r.crossval_failures) - 10} more "
                    f"cross-validation failures"
                )
            if r.corollaries:
                coro = ", ".join(
                    f"{k}={v}" for k, v in sorted(r.corollaries.items())
                )
                lines.append(f"  corollaries: {coro}")
        for name, reason in sorted(self.waived.items()):
            lines.append(f"{name}: uncertified — {reason}")
        for name in sorted(self.uncovered):
            lines.append(
                f"{name}: NOT COVERED — no certificate and no waiver "
                f"(add one to collectives/certificates.py)"
            )
        for name in sorted(self.stale_waivers):
            lines.append(
                f"{name}: STALE WAIVER — waived but not in the registry"
            )
        for fdesc in self.role_failures[:10]:
            lines.append(f"role lemma XVAL: {fdesc}")
        certified = sum(1 for r in self.reports if r.ok)
        lines.append(
            f"prove: {certified}/{len(self.reports)} certificates ok, "
            f"{len(self.waived)} waived, {len(self.uncovered)} uncovered"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def prove_collective(
    name: str,
    xval_lo: int = DEFAULT_XVAL_RANGE[0],
    xval_hi: int = DEFAULT_XVAL_RANGE[1],
    nbytes: int = 65536,
    skip_crossval: bool = False,
) -> CertificateReport:
    """Check one collective's certificate symbolically, then
    cross-validate it against concrete provenance at every P in range.
    """
    cert = CERTIFICATES.get(name)
    if cert is None:
        raise ConfigurationError(
            f"no certificate declared for {name!r}; certified: "
            f"{', '.join(sorted(CERTIFICATES))}"
        )
    if name not in REGISTRY:
        raise ConfigurationError(f"unknown collective {name!r}")
    if xval_lo < 2 or xval_hi < xval_lo:
        raise ConfigurationError(
            f"bad cross-validation range [{xval_lo}, {xval_hi}]"
        )

    pr = _Prover(name)
    corollaries: Dict[str, Any] = {}
    has_ring = False
    for phase in cert.phases:
        if isinstance(phase, ScatterPhase):
            _prove_scatter(pr)
        elif isinstance(phase, RingPhase):
            has_ring = True
            _prove_ring_invariant(pr, phase.tuned, phase.seeded)
            if phase.tuned:
                _prove_role_lemma(pr)
                _prove_pairing(pr)
            corollaries.update(_prove_counts(pr, phase.tuned, phase.seeded))
    if not has_ring:
        # Scatter-only certificate still pins its count corollary.
        corollaries["transfers"] = "P - 1"
    if len(cert.phases) > 1:
        pr.structural(
            "compose.chain",
            "phase chaining: the ring base case is exactly the scatter "
            "postcondition (ownership [rel, rel+extent))",
            "same invariant expression on both sides; cross-validated "
            "through the combined schedule",
        )

    points = 0
    xval_failures: List[str] = []
    if not skip_crossval:
        for P in range(xval_lo, xval_hi + 1):
            xval_failures.extend(crossvalidate_certificate(name, P, nbytes))
            points += 1
    return CertificateReport(
        collective=name,
        description=cert.description,
        obligations=pr.obligations,
        corollaries=corollaries,
        crossval_range=(xval_lo, xval_hi),
        crossval_points=points,
        crossval_failures=xval_failures,
        crossval_skipped=skip_crossval,
    )


def prove_all(
    xval_lo: int = DEFAULT_XVAL_RANGE[0],
    xval_hi: int = DEFAULT_XVAL_RANGE[1],
    nbytes: int = 65536,
    skip_crossval: bool = False,
) -> ProveReport:
    """Prove every certified collective and enforce the completeness
    rule: each registry entry is certified or explicitly waived."""
    report = ProveReport()
    for name in sorted(REGISTRY):
        if name in CERTIFICATES:
            report.reports.append(
                prove_collective(
                    name,
                    xval_lo=xval_lo,
                    xval_hi=xval_hi,
                    nbytes=nbytes,
                    skip_crossval=skip_crossval,
                )
            )
        elif name in UNCERTIFIED:
            report.waived[name] = UNCERTIFIED[name]
        else:
            report.uncovered.append(name)
    for name in UNCERTIFIED:
        if name not in REGISTRY:
            report.stale_waivers.append(name)
        elif name in CERTIFICATES:
            report.stale_waivers.append(name)
    if not skip_crossval:
        report.role_failures = crossvalidate_roles(xval_lo, xval_hi)
    return report
