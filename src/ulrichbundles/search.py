"""Box-bounded classification scans.

Runtime answers always come from exhaustive scans over a lattice box; the
known closed-form classifications on the Hirzebruch surfaces F_r =
P(O + O(r)) over P^1 (``picard.hirzebruch_parameter``) are emitted
alongside and asserted to agree with the scan inside the box, so the scan
validates the formulas rather than the other way round.  The three scans
share one helper for each half: ``_scan`` (the hits) and ``_closed_form``
(filter, agreement assertion, block).  A point c is a hit when every line
bundle O(c + t) has no cohomology, t running over the offsets of its
checks: 0 for ``enum-zero``, -iA (i = 1..dim) for ``enum-ulrich``, 0 and
the Sym^k terms of the criterion for ``search-pb``.  On P^n, curves and
P(E) over either, ``_scan`` tabulates the box by rows (one
``cohomology._bundle_row`` per H-degree and offset) and re-checks every
hit through the public route (``cohomology``, ``is_ulrich``,
``pullback_ulrich_criterion``); deeper towers take that route at every
point.  Scans whose tables are generic (over a curve) say so in a note.

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
from operator import add, and_

from .cohomology import _check_cap, _closed_level, _zero_row, cohomology
from .errors import BoxTooLarge, GenericModeUnsupported, InternalInconsistency
from .picard import (
    DivisorClass,
    GenericCurve,
    ProjBundle,
    Variety,
    hirzebruch_parameter,
    line_bundle,
)
from .ulrich import Polarisation, _criterion_setup, is_ulrich, pullback_ulrich_criterion

GENERIC_NOTE = "verdicts use the generic-curve model"
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


def _scan(v: Variety, box: SearchBox, offsets, check) -> tuple:
    """``(hits, generic)``: the sorted points c of the box at which every
    O(c + t), t in ``offsets``, has no cohomology, and whether any of those
    tables is generic.  A sum of tables with positive multiplicities
    vanishes iff each one does, so this is the verdict of ``check(c)``,
    the per-point public route, which returns ``(verdict, generic)``.

    On P^n, a curve or a P(E) over either the box is tabulated row by row
    (``_zero_row``: one ``_twist_sums`` lookup per H-degree and offset),
    and every hit is re-checked by ``check``; a disagreement raises
    InternalInconsistency.  Deeper towers take ``check`` at every point.
    """
    if isinstance(v, ProjBundle) and not _closed_level(v):
        hits, generic = [], False
        for c in box.points():
            verdict, flag = check(c)
            generic = generic or flag
            if verdict:
                hits.append(c)
        return tuple(hits), generic
    (lo, hi), *rest = box.bounds
    hits, generic = [], False
    for tail in itertools.product(*(range(a, b + 1) for a, b in rest)):
        keep = [True] * (hi - lo + 1)
        for t, *t_rest in offsets:
            flag, zero = _zero_row(v, lo + t, hi + t, tuple(map(add, tail, t_rest)))
            generic = generic or flag
            keep = list(map(and_, keep, zero))
        hits += [(a, *tail) for a, ok in zip(range(lo, hi + 1), keep) if ok]
    for c in hits:
        if not check(c)[0]:
            raise InternalInconsistency(
                f"row scan hit {list(c)} on {v.name} fails its per-point check")
    return tuple(sorted(hits)), generic


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


def _notes(generic: bool) -> tuple:
    return (GENERIC_NOTE,) if generic else ()


def zero_cohomology_line_bundles(v: Variety, box: SearchBox,
                                 cap: int | None = None) -> ScanResult:
    """All divisor classes D in the box with H^*(v, O(D)) = 0."""
    if isinstance(v, GenericCurve):
        raise GenericModeUnsupported(
            "zero-cohomology scans need exact tables; use "
            "generic_curve_ulrich_degree for the curve rule")
    _check_cap(box.volume, cap)

    def check(coords):
        table = cohomology(v, DivisorClass(v, coords))
        return table.is_zero(), table.generic

    hits, generic = _scan(v, box, ((0,) * v.picard_rank,), check)
    if (r := hirzebruch_parameter(v)) is None:
        return ScanResult(hits, None, _notes(generic))
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
    _check_cap(box.volume, cap)

    def check(coords):
        report = is_ulrich(v, line_bundle(v, coords), pol)
        return report.verdict, report.generic

    offsets = [(-i * pol.divisor).coords for i in range(1, v.dim + 1)]
    hits, generic = _scan(v, box, offsets, check)
    if (r := hirzebruch_parameter(v)) is None:
        return ScanResult(hits, None, _notes(generic))
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
    x = pb.base
    setup = _criterion_setup(x, pb.summands, a)

    def check(coords):
        report = pullback_ulrich_criterion(x, pb.summands, line_bundle(x, coords), setup)
        return report.verdict, report.generic

    # H^*(F) and every term of the criterion's Sym^k twists (all in degree 0)
    offsets = dict.fromkeys([(0,) * x.picard_rank]
                            + [t for _, terms in setup.twists for _, t in terms])
    hits, generic = _scan(x, box, offsets, check)
    return ScanResult(hits, None, _notes(generic))


def generic_curve_ulrich_degree(genus: int) -> int:
    """Degree g-1: a general line bundle of that degree has no cohomology,
    so its pullback twisted by D is Ulrich on any P(E) over the curve."""
    if genus < 0:
        raise ValueError("genus must be >= 0")
    return genus - 1
