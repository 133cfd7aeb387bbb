"""Box-bounded classification scans.

Runtime answers come from scans over a lattice box; the known
closed-form classifications on the Hirzebruch surfaces F_r =
P(O + O(r)) over P^1 (``picard.hirzebruch_parameter``) are emitted
alongside and asserted to agree with the scan inside the box, so the scan
validates the formulas rather than the other way round.  The three scans
share one helper for each half: ``_scan`` (the hits) and ``_closed_form``
(filter, agreement assertion, block).  A point c is a hit when every line
bundle O(c + t) has no cohomology, t running over the offsets of its
checks: 0 for ``enum-zero``, -iA (i = 1..dim) for ``enum-ulrich``, 0 and
the Sym^k terms of the criterion for ``search-pb``.  On every variety
``_scan`` meets each row with one zero interval per offset (the row
function of ``cohomology._zero_interval``, built once per scan) and
re-checks the hits through the public route (``cohomology``,
``is_ulrich``, ``pullback_ulrich_criterion``) once, on the direct sum of
O(c) over the hits: vanishing and the Ulrich property are additive, and
no term of a table can cancel another (``cohomology._closed_level_table``
refuses one that could), so that one verdict is exactly the per-hit
verdicts.  The hits stay integer coordinate tuples throughout:
the routes take them as one candidate (``_HitSum``) that tensors them
into each check's twists, so no divisor class or split bundle is built
per hit.  Scans whose tables are generic (over a curve) say so in a
note.

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
from operator import add

from .cohomology import _check_cap, _zero_rows, cohomology, split_table, tensor_terms
from .errors import BoxTooLarge, GenericModeUnsupported, InternalInconsistency
from .picard import DivisorClass, GenericCurve, ProjBundle, Variety, hirzebruch_parameter
from .ulrich import Polarisation, _setup_for, is_ulrich, pullback_ulrich_criterion

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


@dataclass(frozen=True)
class _HitSum:
    """The direct sum of O(c) over the coordinate tuples ``coords`` of a
    scan's hits, as a candidate of the public routes
    (``cohomology.candidate_table``): each table tensors the coordinates
    into its twists (``tensor_terms``) and takes one ``split_table`` walk."""

    coords: list

    def twisted_table(self, v: Variety, twists: dict, dim: int):
        return split_table(v, tensor_terms(self.coords, twists), dim)

    def __str__(self) -> str:
        return f"sum of {len(self.coords)} scan hits"


def _scan(v: Variety, box: SearchBox, offsets, check) -> tuple:
    """``(hits, generic)``: the sorted points c of the box at which every
    O(c + t), t in ``offsets``, has no cohomology, and whether any of those
    tables is generic.

    Each row of the box meets the zero intervals of its offsets in its
    hits, kept as coordinate tuples: the row function of ``_zero_interval``
    (``_zero_rows``) is built once and called per row and offset.  The
    hits are re-checked by one call of ``check``, the public route's
    verdict on a candidate, on their direct sum (``_HitSum``).  Each of
    its tables sums closed terms with multiplicities >= 1 and no negative
    entry (``_closed_level_table`` refuses anything else), so it vanishes
    iff each hit's table does: the verdict is that of every per-hit check.
    If it fails, the hits are checked one by one, in order, each as a sum
    of one, to name the first failing one; either way the scan raises
    InternalInconsistency.
    """
    (lo, hi), *rest = box.bounds
    hits, generic = [], False
    zero_interval = _zero_rows(v)
    for tail in itertools.product(*(range(a, b + 1) for a, b in rest)):
        first, last = lo, hi
        for t, *t_rest in offsets:
            flag, zero_lo, zero_hi = zero_interval(tuple(map(add, tail, t_rest)))
            generic = generic or flag
            first, last = max(first, zero_lo - t), min(last, zero_hi - t)
        hits += [(a, *tail) for a in range(first, last + 1)]
    if hits and not check(_HitSum(hits)):
        for c in hits:
            if not check(_HitSum([c])):
                raise InternalInconsistency(
                    f"row scan hit {list(c)} on {v.name} fails its per-point check")
        raise InternalInconsistency(
            f"row scan hits on {v.name} fail their summed check but pass one by one")
    return tuple(sorted(hits)), generic


def _closed_form(kind, hits, box: SearchBox, family, notes, **block) -> ScanResult:
    """The scan result with its closed-form block: ``block`` (the family's
    description), the family's members in the box, which must equal the
    scan's hits, and ``complete_beyond_box``; the families live on F_r,
    whose boxes have two bounds."""
    (lo, hi), (lo2, hi2) = box.bounds
    expected = tuple(sorted((i, j) for i, j in family if lo <= i <= hi and lo2 <= j <= hi2))
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
            "zero-cohomology scans need exact tables; on a generic curve "
            "only a general line bundle of degree g-1 has none")
    _check_cap(box.volume, cap)

    def check(hits):
        return cohomology(v, hits).is_zero()

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


def ulrich_line_bundles(v: Variety, a: DivisorClass, box: SearchBox,
                        cap: int | None = None) -> ScanResult:
    """All line bundles in the box that are Ulrich with respect to A."""
    Polarisation.check(v, a)  # before the scan, which checks no A when nothing hits
    _check_cap(box.volume, cap)

    def check(hits):
        return is_ulrich(v, hits, a).verdict

    offsets = [(-i * a).coords for i in range(1, v.dim + 1)]
    hits, generic = _scan(v, box, offsets, check)
    if (r := hirzebruch_parameter(v)) is None:
        return ScanResult(hits, None, _notes(generic))
    ap, bp = a.coords
    if r > 0:
        members = {(ap - 1, 1), (r - 1 + 2 * ap, 0)} if bp == 1 else set()
        notes = (ERRATUM_NOTE,)
    else:
        members = {(ap - 1, 2 * bp - 1), (2 * ap - 1, bp - 1)}
        notes = ()
    return _closed_form("Ulrich line-bundle classification", hits, box, members, notes,
                        members=[list(c) for c in sorted(members)])


def pullback_ulrich_line_search(pb: ProjBundle, a: DivisorClass, box: SearchBox,
                                cap: int | None = None) -> ScanResult:
    """Base line bundles F in the box for which pullback(F)(D) is Ulrich
    on P(E) with respect to D = pullback(A) + H."""
    _check_cap(box.volume, cap)
    x = pb.base
    setup = _setup_for(x, pb.summands, a)

    def check(hits):
        return pullback_ulrich_criterion(x, pb.summands, hits, a).verdict

    # H^*(F) and every term of the criterion's Sym^k twists (all in degree 0)
    offsets = dict.fromkeys([(0,) * x.picard_rank]
                            + [t for _, terms in setup.twists for _, t in terms])
    hits, generic = _scan(x, box, offsets, check)
    return ScanResult(hits, None, _notes(generic))

