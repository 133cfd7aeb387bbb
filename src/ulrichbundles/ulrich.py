"""Ulrich verdicts.

A locally free sheaf F on (X, A), A very ample, is Ulrich iff
H^*(X, F(-iA)) = 0 for i = 1..dim X.  This module implements

* the definition check itself (``is_ulrich``),
* the Serre partner dual(F)(K_X + (dim+1)A), Ulrich whenever F is,
* the pullback criterion on P(E): for D = pullback(A) + H very ample,
  pullback(F)(D) is Ulrich iff H^*(X, F) = 0 and
  Hom^*(Sym^k E, F(-c1(E) - (rank E + k)A)) = 0 for k = 0..dim(X)-2;
  everything in it but F (P(E), the very-ampleness of D, the Sym^k E
  terms and the D' verdict) is built once per (X, E, A) in a process and
  shared, read-only, by every later request of that (X, E, A),
* the direct recomputation of the same verdict on P(E) through the
  pushforward engine, cross-asserted against the criterion,
* the semiorthogonality probe Hom^*(pullback(L1), pullback(L2)(-pH)).

Candidates are split bundles, divisor classes or objects with a
``twisted_table(v, twists, dim)`` method, such as a twisted kernel bundle
on P^n (see kernelbundle); ``cohomology.candidate_table`` is the one rule
for all of them, shared with ``cohomology.cohomology``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from types import MappingProxyType

from .cohomology import (
    CohomologyTable,
    candidate_table,
    cohomology,
    push_down,
    start_terms,
)
from .errors import (
    BadTwist,
    InternalInconsistency,
    NotVeryAmple,
    UnsupportedPolarisation,
    UnsupportedVariety,
)
from .picard import (
    DivisorClass,
    ProjBundle,
    SplitBundle,
    Variety,
    canonical_class,
    is_very_ample,
    render_bundle,
    render_divisor,
    sym_power,
)


@dataclass(frozen=True)
class Polarisation:
    """A very ample divisor class; construction verifies very-ampleness."""

    divisor: DivisorClass
    sufficient_only: bool = False

    @classmethod
    def check(cls, v: Variety, d) -> "Polarisation":
        if isinstance(d, Polarisation):
            return d
        verdict = is_very_ample(v, d)
        if not verdict:
            raise NotVeryAmple(f"{render_divisor(d)} is not very ample on "
                               f"{v.name}")
        return cls(d, verdict.sufficient_only)


_SUFFICIENT_NOTE = "polarisation verified by the sufficient degree bound only"


@dataclass(frozen=True)
class TwistCheck:
    label: str
    table: CohomologyTable
    ok: bool


@dataclass(frozen=True)
class UlrichReport:
    candidate: str
    polarisation: str
    verdict: bool
    checks: tuple
    method: str
    generic: bool
    notes: tuple = field(default_factory=tuple)

    def to_json(self) -> dict:
        return {
            "candidate": self.candidate,
            "polarisation": self.polarisation,
            "verdict": self.verdict,
            "method": self.method,
            "checks": [{"twist": c.label, "h": list(c.table.h), "ok": c.ok}
                       for c in self.checks],
            "generic": self.generic,
            "notes": list(self.notes),
        }


def _candidate_name(cand) -> str:
    if isinstance(cand, SplitBundle):
        return render_bundle(cand)
    return str(cand)


def _report(cand, pol, checks, method, notes=()) -> UlrichReport:
    return UlrichReport(
        candidate=_candidate_name(cand), polarisation=render_divisor(pol.divisor),
        verdict=all(c.ok for c in checks), checks=tuple(checks), method=method,
        generic=any(c.table.generic for c in checks), notes=tuple(notes))


def _checks(v: Variety, cand, dim: int, labelled) -> list:
    """One TwistCheck per ``(label, twists)`` pair: the ``candidate_table``
    of cand tensored into those twists, ok when it vanishes."""
    checks = []
    for label, twists in labelled:
        table = candidate_table(v, cand, twists, dim)
        checks.append(TwistCheck(label, table, table.is_zero()))
    return checks


def is_ulrich(v: Variety, cand, a) -> UlrichReport:
    """Definition check: the dim(v) twist tables of cand(-iA) must vanish."""
    pol = Polarisation.check(v, a)
    checks = _checks(v, cand, v.dim, ((f"-{i}A", {(0, (-i * pol.divisor).coords): 1})
                                      for i in range(1, v.dim + 1)))
    notes = [_SUFFICIENT_NOTE] if pol.sufficient_only else []
    return _report(cand, pol, checks, "definition", notes)


def serre_partner(v: Variety, f: SplitBundle, a):
    """dual(F)(K_V + (dim+1)A) and whether it coincides with F as a multiset.

    The partner of an Ulrich bundle is Ulrich; rank-two self-partners are
    the special Ulrich bundles with c1 = K + (dim+1)A.
    """
    pol = a.divisor if isinstance(a, Polarisation) else a
    twist = canonical_class(v) + (v.dim + 1) * pol
    partner = f.dual().twist(twist)
    return partner, partner.same_summands(f)


@dataclass(frozen=True)
class _CriterionSetup:
    """The half of the criterion that does not depend on the candidate:
    the polarisation, the labelled twist terms of the k = 0..dim(X)-2
    checks, the notes, and the (X, E) they were built for.  One setup is
    shared by every request of its (X, E, A), so the terms are read-only
    mappings."""

    pol: Polarisation
    twists: tuple  # ("k=<k>", read-only terms) pairs
    notes: tuple
    base: Variety
    bundle: SplitBundle


def _criterion_setup(x: Variety, e: SplitBundle, a) -> _CriterionSetup:
    """The setup of the criterion for (X, E, A), built once per process for
    each (X, E, A's divisor class) by ``_setup_for``; a ``Polarisation``
    keys by its divisor.  A scan over many candidates, or the direct check,
    passes that setup as ``a``, and it is returned as is."""
    if isinstance(a, _CriterionSetup):
        return a
    return _setup_for(x, e, a.divisor if isinstance(a, Polarisation) else a)


@lru_cache(maxsize=256)
def _setup_for(x: Variety, e: SplitBundle, a_div: DivisorClass) -> _CriterionSetup:
    """Checks D = pullback(A) + H very ample on P(E) and builds the terms of
    Hom^*(Sym^k E, F(-c1(E) - (rank+k)A)), k = 0..dim(X)-2, and the notes.
    On a surface the k = 0 twist is -D', D' = rank(E)*A + c1(E), as
    Sym^0 E = O; D' very ample is reported, never assumed (``undecided``
    where no test applies).  The memo keeps the 256 setups used last; a
    refusal is not memoised, and raises the same NotVeryAmple every time."""
    pb = ProjBundle(x, e)
    d = DivisorClass(pb, a_div.coords + (1,))
    verdict = is_very_ample(pb, d)
    if not verdict:
        raise NotVeryAmple(
            f"pullback({render_divisor(a_div)}) + H is not very ample on {pb.name}")
    pol = Polarisation(a_div, verdict.sufficient_only)
    # Hom^*(Sym^k E, F(twist)) = H^*(F x dual(Sym^k E)(twist))
    twists = tuple(
        (f"k={k}", MappingProxyType(start_terms(
            x, sym_power(e, k).dual(),
            {(0, (-1 * e.c1 - (e.rank + k) * a_div).coords): 1})))
        for k in range(x.dim - 1))
    notes = []
    if x.dim == 1:
        notes.append("curve base: H(F) = 0 alone decides")
    if x.dim == 2:
        d_prime = e.rank * a_div + e.c1
        try:
            flag = bool(is_very_ample(x, d_prime))
        except UnsupportedPolarisation:
            flag = "undecided"
        notes.append(f"D' = {render_divisor(d_prime)}; k=0 check equals H(F - D')")
        notes.append(f"D' very ample: {flag} (reported, not assumed)")
    if pol.sufficient_only:
        notes.append(_SUFFICIENT_NOTE)
    return _CriterionSetup(pol, twists, tuple(notes), x, e)


def pullback_ulrich_criterion(x: Variety, e: SplitBundle, cand, a) -> UlrichReport:
    """Base-side criterion for pullback(F)(D) Ulrich on P(E), D = pullback(A)+H.

    Checks H^*(X, F) = 0 together with, for k = 0..dim(X)-2,
    Hom^*(Sym^k E, F(-c1(E) - (rank+k)A)) = 0.  On curves the first check
    alone decides; on surfaces the single extra check equals
    H^*(X, F(-D')) with D' = rank(E)*A + c1(E), whose very-ampleness is
    reported.  Everything but F comes from ``_criterion_setup(x, e, A)``,
    which is built once per (X, E, A) in a process; a scan over many
    candidates passes that setup as ``a``, and a setup built for another
    (X, E) raises InternalInconsistency.
    """
    setup = _criterion_setup(x, e, a)
    if (setup.base, setup.bundle) != (x, e):
        raise InternalInconsistency(
            f"criterion setup for {render_bundle(setup.bundle)} on {setup.base.name} "
            f"used for {render_bundle(e)} on {x.name}")
    checks = _checks(x, cand, x.dim,
                     (("F", {(0, (0,) * x.picard_rank): 1}),) + setup.twists)
    return _report(cand, setup.pol, checks, "criterion", setup.notes)


def direct_ulrich_check(pb: ProjBundle, cand, a) -> UlrichReport:
    """Ulrich definition applied on P(E) itself to pullback(F)(D).

    Each twist -iD is pushed down to the base once (``push_down``), and
    the candidate tensored into those terms takes one merged walk; the
    verdict is then asserted to match the base-side criterion, a mismatch
    raising InternalInconsistency (engine bug).
    """
    if not isinstance(pb, ProjBundle):
        raise UnsupportedVariety("direct check expects a projective bundle")
    setup = _criterion_setup(pb.base, pb.summands, a)
    a_div = setup.pol.divisor
    checks = _checks(pb.base, cand, pb.dim, (
        (f"-{i}D", push_down(pb, {(0, ((1 - i) * a_div).coords + (1 - i,)): 1}))
        for i in range(1, pb.dim + 1)))
    report = _report(cand, setup.pol, checks, "direct",
                     ["candidate on P(E): pullback(F) + D, D = pullback(A) + H"])
    criterion = pullback_ulrich_criterion(pb.base, pb.summands, cand, setup)
    if criterion.verdict != report.verdict:
        raise InternalInconsistency(
            f"criterion verdict {criterion.verdict} != direct verdict "
            f"{report.verdict} for {report.candidate} on {pb.name}")
    return replace(report, generic=report.generic or criterion.generic,
                   notes=report.notes + (f"criterion agrees: {criterion.verdict}",))


def semiorthogonality_probe(pb: ProjBundle, l1: DivisorClass, l2: DivisorClass,
                            p: int) -> CohomologyTable:
    """Hom^*(pullback(L1), pullback(L2)(-pH)); zero for 1 <= p <= rank-1."""
    if not isinstance(pb, ProjBundle):
        raise UnsupportedVariety("probe expects a projective bundle")
    if not 0 <= p <= pb.rank - 1:
        raise BadTwist(f"probe twist p must satisfy 0 <= p <= {pb.rank - 1}, got {p}")
    diff = l2 - l1
    return cohomology(pb, DivisorClass(pb, diff.coords + (-p,)))
