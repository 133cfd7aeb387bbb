"""Ulrich verdicts.

A locally free sheaf F on (X, A), A very ample, is Ulrich iff
H^*(X, F(-iA)) = 0 for i = 1..dim X.  This module implements

* the definition check itself (``is_ulrich``),
* the Serre partner dual(F)(K_X + (dim+1)A), Ulrich whenever F is,
* the pullback criterion on P(E): for D = pullback(A) + H very ample,
  pullback(F)(D) is Ulrich iff H^*(X, F) = 0 and
  Hom^*(Sym^k E, F(-c1(E) - (rank E + k)A)) = 0 for k = 0..dim(X)-2,
* the direct recomputation of the same verdict on P(E) through the
  pushforward engine, cross-asserted against the criterion,
* the semiorthogonality probe Hom^*(pullback(L1), pullback(L2)(-pH)).

Candidates may be split bundles or twisted kernel-bundle presentations
on P^n (see kernelbundle).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .cohomology import (
    CohomologyTable,
    cohomology,
    push_down,
    pushforward_table,
    split_table,
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


def _base_table(v: Variety, cand, twists: dict, dim: int) -> CohomologyTable:
    """Table h^0..h^dim of cand(twist)^mult in degree shift, summed over
    ``twists = {(shift, coords): mult}`` on v; cand is split (tensored into
    the twists and walked once, ``split_table``) or a twisted kernel."""
    if isinstance(cand, SplitBundle):
        return split_table(v, start_terms(v, cand, twists), dim)
    from . import kernelbundle  # local import, kernelbundle calls back here

    kern = kernelbundle.as_twisted_kernel(cand)
    if not kern.lives_on(v):
        raise UnsupportedVariety(
            f"kernel presentation is on P^{kern.presentation.matrix.n}, not {v.name}")
    return pushforward_table(dim, twists, lambda twist: kernelbundle.kernel_cohomology(
        kern.presentation, kern.shift + twist[0]))


def _report(cand, pol, checks, method, notes=()) -> UlrichReport:
    verdict = all(c.ok for c in checks)
    generic = any(c.table.generic for c in checks)
    return UlrichReport(
        candidate=_candidate_name(cand),
        polarisation=render_divisor(pol.divisor),
        verdict=verdict,
        checks=tuple(checks),
        method=method,
        generic=generic,
        notes=tuple(notes),
    )


def is_ulrich(v: Variety, cand, a) -> UlrichReport:
    """Definition check: the dim(v) twist tables of cand(-iA) must vanish."""
    pol = Polarisation.check(v, a)
    checks = []
    for i in range(1, v.dim + 1):
        table = _base_table(v, cand, {(0, (-i * pol.divisor).coords): 1}, v.dim)
        checks.append(TwistCheck(f"-{i}A", table, table.is_zero()))
    notes = []
    if pol.sufficient_only:
        notes.append("polarisation verified by the sufficient degree bound only")
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
    """The part of the criterion that does not depend on the candidate:
    the polarisation of P(E) and, on a surface base, D' with its note."""

    pol: Polarisation
    d_prime: DivisorClass | None = None
    d_prime_note: str | None = None


def _criterion_setup(x: Variety, e: SplitBundle, a) -> _CriterionSetup:
    if isinstance(a, _CriterionSetup):
        return a
    pb = ProjBundle(x, e)
    a_div = a.divisor if isinstance(a, Polarisation) else a
    d = DivisorClass(pb, a_div.coords + (1,))
    verdict = is_very_ample(pb, d)
    if not verdict:
        raise NotVeryAmple(
            f"pullback({render_divisor(a_div)}) + H is not very ample on {pb.name}")
    pol = Polarisation(a_div, verdict.sufficient_only)
    if x.dim != 2:
        return _CriterionSetup(pol)
    d_prime = e.rank * a_div + e.c1
    try:
        flag = bool(is_very_ample(x, d_prime))
    except UnsupportedPolarisation:
        flag = "undecided"
    return _CriterionSetup(pol, d_prime, f"D' very ample: {flag} (reported, not assumed)")


def pullback_ulrich_criterion(x: Variety, e: SplitBundle, cand, a) -> UlrichReport:
    """Base-side criterion for pullback(F)(D) Ulrich on P(E), D = pullback(A)+H.

    Checks H^*(X, F) = 0 together with, for k = 0..dim(X)-2,
    Hom^*(Sym^k E, F(-c1(E) - (rank+k)A)) = 0.  On curves the first check
    alone decides; on surfaces the single extra check equals
    H^*(X, F(-D')) with D' = rank(E)*A + c1(E), which is asserted and the
    very-ampleness of D' is reported (never assumed; ``undecided`` where
    no test applies, as over a ruled surface on a curve).  A scan over
    many candidates passes ``_criterion_setup(x, e, A)`` as ``a``, so the
    polarisation and D' are checked once.
    """
    setup = _criterion_setup(x, e, a)
    pol = setup.pol
    a_div = pol.divisor
    table_f = _base_table(x, cand, {(0, (0,) * x.picard_rank): 1}, x.dim)
    checks = [TwistCheck("F", table_f, table_f.is_zero())]
    notes = []
    for k in range(0, x.dim - 1):
        twist = -1 * e.c1 - (e.rank + k) * a_div
        # Hom^*(Sym^k E, F(twist)) = H^*(F x dual(Sym^k E)(twist))
        twists = start_terms(x, sym_power(e, k).dual(), {(0, twist.coords): 1})
        table = _base_table(x, cand, twists, x.dim)
        checks.append(TwistCheck(f"k={k}", table, table.is_zero()))
    if x.dim == 1:
        notes.append("curve base: H(F) = 0 alone decides")
    if x.dim == 2:
        d_prime = setup.d_prime
        # Sym^0 E = O, so the k=0 check is H(F - D') iff its twist is -D'
        k0_twist = -1 * e.c1 - e.rank * a_div
        if k0_twist != -d_prime:
            raise InternalInconsistency(
                f"surface reduction mismatch: k=0 twist {render_divisor(k0_twist)}, "
                f"-D' = {render_divisor(-d_prime)}")
        notes.append(f"D' = {render_divisor(d_prime)}; k=0 check equals H(F - D')")
        notes.append(setup.d_prime_note)
    if pol.sufficient_only:
        notes.append("polarisation verified by the sufficient degree bound only")
    return _report(cand, pol, checks, "criterion", notes)


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
    pol = setup.pol
    a_div = pol.divisor
    checks = []
    for i in range(1, pb.dim + 1):
        terms = push_down(pb, {(0, ((1 - i) * a_div).coords + (1 - i,)): 1})
        table = _base_table(pb.base, cand, terms, pb.dim)
        checks.append(TwistCheck(f"-{i}D", table, table.is_zero()))
    report = _report(cand, pol, checks, "direct",
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
