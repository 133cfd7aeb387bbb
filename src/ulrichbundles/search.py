"""Box-bounded classification scans.

Runtime answers always come from exhaustive scans over a lattice box; the
known closed-form classifications on the Hirzebruch surfaces F_r =
P(O + O(r)) over P^1 (``picard.hirzebruch_parameter``) are emitted
alongside and asserted to agree with the scan inside the box, so the scan
validates the formulas rather than the other way round.  The two line-bundle
scans share one helper for each half: ``_scan`` (cap check, walk, sorted
hits) and ``_closed_form`` (filter, agreement assertion, block).

Closed forms used (polarisation A = a*f + b*C+ very ample):

* bundles with no cohomology on F_r, r > 0:
      -f,   i*f - C+ (any i),   (r-1)*f - 2C+
  The tempting variant (r-2)*f - 2C+ of the third entry is the canonical
  divisor, whose h^2 equals 1; scans carry an erratum note about it.
* on P^1 x P^1: the two fibre families (-1, j) and (i, -1).
* Ulrich line bundles on F_r, r > 0: exactly (a-1, 1) and (r-1+2a, 0)
  when b = 1, none when b >= 2.
* Ulrich line bundles on P^1 x P^1: (a-1, 2b-1) and (2a-1, b-1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .cohomology import _check_cap, cohomology
from .errors import BoxTooLarge, GenericModeUnsupported, InternalInconsistency
from .picard import (
    DivisorClass,
    GenericCurve,
    ProjBundle,
    SplitBundle,
    Variety,
    hirzebruch_parameter,
)
from .ulrich import Polarisation, _criterion_setup, is_ulrich, pullback_ulrich_criterion

ERRATUM_NOTE = ("third vanishing family on F_r (r>0) is (r-1)f - 2C+; "
                "the class (r-2)f - 2C+ equals the canonical divisor and has h^2 = 1")


@dataclass(frozen=True)
class SearchBox:
    """Inclusive per-coordinate bounds for a lattice scan."""

    bounds: tuple

    @classmethod
    def symmetric(cls, v: Variety, radius: int) -> "SearchBox":
        if radius < 0:
            raise BoxTooLarge(f"box radius must be >= 0, got {radius}")
        return cls(tuple((-radius, radius) for _ in range(v.picard_rank)))

    @property
    def volume(self) -> int:
        total = 1
        for lo, hi in self.bounds:
            if hi < lo:
                raise BoxTooLarge(f"empty box bound ({lo}, {hi})")
            total *= hi - lo + 1
        return total

    def points(self):
        return itertools.product(*(range(lo, hi + 1) for lo, hi in self.bounds))

    def contains(self, coords) -> bool:
        return all(lo <= c <= hi for c, (lo, hi) in zip(coords, self.bounds))


@dataclass(frozen=True)
class ScanResult:
    """Sorted scan hits plus optional closed-form block and notes."""

    results: tuple
    closed_form: dict | None = None
    erratum_notes: tuple = field(default_factory=tuple)

    def to_json(self) -> dict:
        out = {"results": [list(c) for c in self.results]}
        if self.closed_form is not None:
            out["closed_form"] = self.closed_form
        out["erratum_notes"] = list(self.erratum_notes)
        return out


def _scan(box: SearchBox, cap, keep) -> tuple:
    """The sorted points of the box that ``keep`` accepts; the box must
    pass the cap first."""
    _check_cap(box.volume, cap)
    return tuple(sorted(coords for coords in box.points() if keep(coords)))


def _closed_form(kind, hits, box: SearchBox, family, notes, **block) -> ScanResult:
    """The scan result with its closed-form block: ``block`` (the family's
    description), the family's members in the box, which must equal the
    scan's hits, and ``complete_beyond_box``."""
    expected = tuple(sorted(c for c in family if box.contains(c)))
    if hits != expected:
        raise InternalInconsistency(
            f"{kind}: scan {hits} disagrees with closed form {expected}")
    block.update(members_in_box=[list(c) for c in expected], complete_beyond_box=True)
    return ScanResult(hits, block, notes)


def zero_cohomology_line_bundles(v: Variety, box: SearchBox,
                                 cap: int | None = None) -> ScanResult:
    """All divisor classes D in the box with H^*(v, O(D)) = 0."""
    if isinstance(v, GenericCurve):
        raise GenericModeUnsupported(
            "zero-cohomology scans need exact tables; use "
            "generic_curve_ulrich_degree for the curve rule")
    hits = _scan(box, cap, lambda coords: cohomology(v, DivisorClass(v, coords)).is_zero())
    if (r := hirzebruch_parameter(v)) is None:
        return ScanResult(hits)
    kind = "zero-cohomology classification"
    (lo, hi), (lo2, hi2) = box.bounds
    fibres = {(i, -1) for i in range(lo, hi + 1)}
    if r > 0:
        return _closed_form(kind, hits, box, {(-1, 0), (r - 1, -2)} | fibres,
                            (ERRATUM_NOTE,),
                            families=["(-1, 0)", "(i, -1) for all i", f"({r - 1}, -2)"])
    return _closed_form(kind, hits, box, {(-1, j) for j in range(lo2, hi2 + 1)} | fibres,
                        (), families=["(-1, j) for all j", "(i, -1) for all i"])


def ulrich_line_bundles(v: Variety, a, box: SearchBox,
                        cap: int | None = None) -> ScanResult:
    """All line bundles in the box that are Ulrich with respect to A."""
    pol = Polarisation.check(v, a)
    hits = _scan(box, cap, lambda coords: is_ulrich(
        v, SplitBundle(v, (DivisorClass(v, coords),)), pol).verdict)
    if (r := hirzebruch_parameter(v)) is None:
        return ScanResult(hits)
    ap, bp = pol.divisor.coords
    if r > 0:
        members = {(ap - 1, 1), (r - 1 + 2 * ap, 0)} if bp == 1 else set()
        notes = (ERRATUM_NOTE,)
    else:
        members = {(ap - 1, 2 * bp - 1), (2 * ap - 1, bp - 1)}
        notes = ()
    return _closed_form("Ulrich line-bundle classification", hits, box, members, notes,
                        members=[list(c) for c in sorted(members)])


def pullback_ulrich_line_search(pb: ProjBundle, a, box: SearchBox,
                                cap: int | None = None) -> ScanResult:
    """Base line bundles F in the box for which pullback(F)(D) is Ulrich
    on P(E) with respect to D = pullback(A) + H."""
    _check_cap(box.volume, cap)
    setup = _criterion_setup(pb.base, pb.summands, a)
    hits = []
    generic = False
    for coords in box.points():
        cand = SplitBundle(pb.base, (DivisorClass(pb.base, coords),))
        report = pullback_ulrich_criterion(pb.base, pb.summands, cand, setup)
        generic = generic or report.generic
        if report.verdict:
            hits.append(coords)
    notes = ("verdicts use the generic-curve model",) if generic else ()
    return ScanResult(tuple(sorted(hits)), None, notes)


def generic_curve_ulrich_degree(genus: int) -> int:
    """Degree g-1: a general line bundle of that degree has no cohomology,
    so its pullback twisted by D is Ulrich on any P(E) over the curve."""
    if genus < 0:
        raise ValueError("genus must be >= 0")
    return genus - 1
