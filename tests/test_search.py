"""Classification scans and their closed-form cross-checks."""

import contextlib
import importlib
import io
import json
import random

import pytest

from ulrichbundles import (
    BoxTooLarge,
    DivisorClass,
    EngineError,
    GenericModeUnsupported,
    GenericCurve,
    InternalInconsistency,
    NotVeryAmple,
    ProjSpace,
    SearchBox,
    cohomology,
    direct_ulrich_check,
    generic_curve_ulrich_degree,
    hirzebruch,
    is_ulrich,
    is_very_ample,
    line_bundle,
    parse_variety,
    pullback_ulrich_criterion,
    pullback_ulrich_line_search,
    serre_partner,
    ulrich_line_bundles,
    zero_cohomology_line_bundles,
)
from ulrichbundles.cli import run
from ulrichbundles.search import GENERIC_NOTE
from ulrichbundles.ulrich import _criterion_setup

P2 = ProjSpace(2)
F0 = hirzebruch(0)
F2 = hirzebruch(2)
F3 = hirzebruch(3)


class TestZeroCohomology:
    def test_f2_box_three(self):
        r = zero_cohomology_line_bundles(F2, SearchBox.symmetric(F2, 3))
        expected = {(-1, 0), (1, -2)} | {(i, -1) for i in range(-3, 4)}
        assert set(r.results) == expected
        assert r.closed_form["complete_beyond_box"]
        assert r.erratum_notes

    def test_p2_bott_band(self):
        r = zero_cohomology_line_bundles(P2, SearchBox.symmetric(P2, 4))
        assert r.results == ((-2,), (-1,))
        assert r.closed_form is None

    def test_quadric_two_families(self):
        r = zero_cohomology_line_bundles(F0, SearchBox.symmetric(F0, 2))
        expected = {(-1, j) for j in range(-2, 3)} | {(i, -1) for i in range(-2, 3)}
        assert set(r.results) == expected

    def test_erratum_detector(self):
        # the class (r-2)f - 2C+ is the canonical divisor: h^2 = 1, not zero
        for r_param in range(1, 5):
            fr = hirzebruch(r_param)
            wrong = cohomology(fr, DivisorClass(fr, (r_param - 2, -2)))
            right = cohomology(fr, DivisorClass(fr, (r_param - 1, -2)))
            assert wrong.h[2] == 1
            assert right.is_zero()

    def test_generic_curve_rejected(self):
        c = GenericCurve(2)
        with pytest.raises(GenericModeUnsupported):
            zero_cohomology_line_bundles(c, SearchBox.symmetric(c, 3))


class TestUlrichLineBundles:
    def test_f3_standard_polarisation(self):
        r = ulrich_line_bundles(F3, DivisorClass(F3, (2, 1)),
                                SearchBox.symmetric(F3, 8))
        assert r.results == ((1, 1), (6, 0))

    def test_f2_steep_polarisation_empty(self):
        r = ulrich_line_bundles(F2, DivisorClass(F2, (1, 2)),
                                SearchBox.symmetric(F2, 8))
        assert r.results == ()

    def test_quadric(self):
        r = ulrich_line_bundles(F0, DivisorClass(F0, (2, 3)),
                                SearchBox.symmetric(F0, 8))
        assert r.results == ((1, 5), (3, 2))

    def test_p2_degree_two_empty(self):
        r = ulrich_line_bundles(P2, DivisorClass(P2, (2,)),
                                SearchBox.symmetric(P2, 8))
        assert r.results == ()

    def test_members_pass_and_partners_close(self):
        a = DivisorClass(F3, (1, 1))
        r = ulrich_line_bundles(F3, a, SearchBox.symmetric(F3, 8))
        hits = set(r.results)
        assert hits
        for coords in hits:
            assert is_ulrich(F3, line_bundle(F3, coords), a).verdict
            partner, _ = serre_partner(F3, line_bundle(F3, coords), a)
            assert partner.multiset()[0] in hits

    def test_not_very_ample(self):
        with pytest.raises(NotVeryAmple):
            ulrich_line_bundles(F2, DivisorClass(F2, (0, 1)),
                                SearchBox.symmetric(F2, 3))


class TestPullbackSearch:
    def test_blowup_of_p3_is_empty(self):
        v = parse_variety("PB(P2;[1],[0])")
        r = pullback_ulrich_line_search(v, DivisorClass(P2, (1,)),
                                        SearchBox.symmetric(P2, 6))
        assert r.results == ()

    def test_scroll_unique_hit(self):
        v = parse_variety("PB(P1;[0],[1],[3])")
        p1 = ProjSpace(1)
        r = pullback_ulrich_line_search(v, DivisorClass(p1, (1,)),
                                        SearchBox.symmetric(p1, 6))
        assert r.results == ((-1,),)

    def test_quadric_base_two_hits(self):
        v = parse_variety("PB(P1xP1;[0,0],[0,1])")
        r = pullback_ulrich_line_search(v, DivisorClass(F0, (1, 1)),
                                        SearchBox.symmetric(F0, 6))
        assert r.results == ((-1, 2), (1, -1))

    def test_hits_pass_direct_check(self):
        v = parse_variety("PB(P1xP1;[0,0],[0,1])")
        a = DivisorClass(F0, (1, 1))
        r = pullback_ulrich_line_search(v, a, SearchBox.symmetric(F0, 4))
        for coords in r.results:
            rep = direct_ulrich_check(v, line_bundle(F0, coords), a)
            assert rep.verdict

    def test_polarisation_checked_once_per_scan(self, monkeypatch):
        # pullback(A) + H on P(E) and D' on the surface base do not depend on
        # the candidate, so the very-ampleness tests must not grow with the box
        picard = importlib.import_module("ulrichbundles.picard")
        ulrich = importlib.import_module("ulrichbundles.ulrich")
        original = picard.is_very_ample
        calls = []

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(picard, "is_very_ample", spy)
        monkeypatch.setattr(ulrich, "is_very_ample", spy)
        v = parse_variety("PB(F1;[0,0],[1,1])")
        a = DivisorClass(v.base, (1, 1))
        counts = []
        for radius in (1, 5):
            calls.clear()
            pullback_ulrich_line_search(v, a, SearchBox.symmetric(v.base, radius))
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 12

    @pytest.mark.parametrize("radius", [1, 3])
    def test_sym_power_built_once_per_scan(self, monkeypatch, radius):
        # Sym^k E does not depend on the candidate: the criterion's setup
        # builds it once, however many points the box holds
        ulrich = importlib.import_module("ulrichbundles.ulrich")
        original = ulrich.sym_power
        calls = []

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(ulrich, "sym_power", spy)
        with contextlib.redirect_stdout(io.StringIO()):
            code = run(["search-pb", "PB(F1;[0,0],[1,1])", "--pol", "[1,1]",
                        "--box", str(radius), "--json"])
        assert code == 0
        assert len(calls) == 1


def plant_row(monkeypatch, entry, rows_only=False):
    """Make the row kernel ``cohomology._bundle_row`` report ``entry`` for
    every degree; with ``rows_only``, only in rows of two or more degrees,
    so the one-degree tables of the per-point route stay right."""
    coh = importlib.import_module("ulrichbundles.cohomology")
    real = coh._bundle_row

    def planted(v, k, lo, hi):
        shift, n, generic, row = real(v, k, lo, hi)
        if rows_only and lo == hi:
            return shift, n, generic, row
        return shift, n, generic, [entry] * len(row)

    monkeypatch.setattr(coh, "_bundle_row", planted)


class TestClosedFormAgreement:
    """A scan that disagrees with its closed form inside the box is an
    engine bug: plant one in the row kernel, which the per-point route
    shares, so only the closed form can tell, and expect exit-3 errors."""

    def test_zero_cohomology_scan(self, monkeypatch):
        plant_row(monkeypatch, (0, 0))
        with pytest.raises(InternalInconsistency, match="zero-cohomology"):
            zero_cohomology_line_bundles(F2, SearchBox.symmetric(F2, 2))

    def test_ulrich_scan(self, monkeypatch):
        plant_row(monkeypatch, (1, 0))
        with pytest.raises(InternalInconsistency, match="Ulrich line-bundle"):
            ulrich_line_bundles(F2, DivisorClass(F2, (1, 1)), SearchBox.symmetric(F2, 3))


class TestRowScan:
    """Rows on P^n, curves and P(E) over either; per-point checks of every
    hit there and of every point on deeper towers."""

    def test_row_fault_caught_by_the_per_hit_recheck(self, monkeypatch):
        # no closed form on a rank-3 bundle: only the re-check can tell
        plant_row(monkeypatch, (0, 0), rows_only=True)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = run(["enum-zero", "PB(P1;[0],[1],[3])", "--box", "2", "--json"])
        assert code == 3
        error = json.loads(out.getvalue())
        assert error["error"] == "internal-inconsistency"
        assert "per-point check" in error["detail"]

    def test_negative_row_entry_is_three(self, monkeypatch):
        coh = importlib.import_module("ulrichbundles.cohomology")
        real = coh._twist_sums

        def negated(*args):
            shift, twists, sums = real(*args)
            return shift, twists, [[-x for x in s] for s in sums]

        monkeypatch.setattr(coh, "_twist_sums", negated)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = run(["enum-zero", "PB(P1;[0],[1],[3])", "--box", "2", "--json"])
        assert code == 3
        assert "negative cohomology dimension" in json.loads(out.getvalue())["detail"]

    @pytest.mark.parametrize("argv, results", [
        (["enum-zero", "PB(C1;[0],[1])", "--box", "3"],
         [[-3, -1], [-2, -1], [-1, -1], [0, -1], [0, 0], [1, -2], [1, -1], [2, -1],
          [3, -1]]),
        (["enum-ulrich", "C2", "--pol", "[5]", "--box", "6"], [[6]]),
    ])
    def test_curve_scans_carry_the_generic_note(self, argv, results):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert run(argv + ["--json"]) == 0
        assert json.loads(out.getvalue()) == {"results": results,
                                              "erratum_notes": [GENERIC_NOTE]}
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert run(argv) == 0
        assert out.getvalue().splitlines()[-1] == f"note: {GENERIC_NOTE}"

    def test_towers_checked_once_per_point(self, monkeypatch):
        search = importlib.import_module("ulrichbundles.search")
        calls = []

        def spy(v, d):
            calls.append(d.coords)
            return cohomology(v, d)

        monkeypatch.setattr(search, "cohomology", spy)
        v = parse_variety("PB(F1;[0,0],[1,1])")
        box = SearchBox.symmetric(v, 2)
        zero_cohomology_line_bundles(v, box)
        assert sorted(calls) == list(box.points())

    def test_sweep_slice(self):
        assert scan_sweep(range(1, 6)) >= 13000


def _summands(rng, rank, width):
    """Seeded summands of a split E, negative and repeated ones included."""
    pool = [[rng.randint(-2, 3) for _ in range(width)] for _ in range(2)]
    return ",".join(str(rng.choice(pool)).replace(" ", "") for _ in range(rank))


def _bundle_names(rng):
    """Seeded P(E) over P^1 (rank 2-4), P^2, P^3 and a curve, and one over F_1."""
    names = [f"PB(P1;{_summands(rng, rank, 1)})" for rank in (2, 3, 4)]
    names += [f"PB(P{n};{_summands(rng, rng.randint(2, 3), 1)})" for n in (2, 3)]
    names += [f"PB(C{rng.randint(0, 3)};{_summands(rng, rng.randint(2, 3), 1)})"]
    return names + [f"PB(F1;{_summands(rng, 2, 2)})"]


def _pick(rng, accept, rank, tries=40):
    """What ``accept`` makes of a seeded class (coordinates 1..4, the last
    1..3, or 1..8 alone) without raising an EngineError, or None."""
    for _ in range(tries):
        coords = ([rng.randint(1, 4) for _ in range(rank - 1)]
                  + [rng.randint(1, 8 if rank == 1 else 3)])
        try:
            if found := accept(coords):
                return found
        except EngineError:
            pass
    return None


def _per_point(kind, v, box, a):
    """Hits and generic flag of the per-point route at every box point."""
    hits, generic = [], False
    for c in box.points():
        if kind == "enum-zero":
            table = cohomology(v, DivisorClass(v, c))
            ok, flag = table.is_zero(), table.generic
        elif kind == "enum-ulrich":
            report = is_ulrich(v, line_bundle(v, c), a)
            ok, flag = report.verdict, report.generic
        else:
            report = pullback_ulrich_criterion(v.base, v.summands,
                                               line_bundle(v.base, c), a)
            ok, flag = report.verdict, report.generic
        generic = generic or flag
        if ok:
            hits.append(c)
    return tuple(hits), generic


def scan_sweep(seeds) -> int:
    """Scan hits and the generic note equal the per-point verdicts on
    every point of seeded boxes: enum-zero and enum-ulrich on P^1..P^3,
    the curves C0..C3 (enum-ulrich only), F0..F4 and seeded bundles
    (``_bundle_names``), and search-pb over a seeded P(E) on each of them.
    Radii run from 2 to 12 on P^n and curves and to 6 on Picard rank 2,
    past the twists and across the dead bands, and are 2 on the tower;
    returns the number of points compared.  CI runs seeds 1..100."""
    compared = 0
    for seed in seeds:
        rng = random.Random(seed)
        names = ["P1", "P2", "P3"] + [f"C{g}" for g in range(4)]
        for name in names + [f"F{r}" for r in range(5)] + _bundle_names(rng):
            v = parse_variety(name)
            radius = rng.randint(2, {1: 12, 2: 6}.get(v.picard_rank, 2))
            box = SearchBox.symmetric(v, radius)
            pb = parse_variety(f"PB({name};"
                               f"{_summands(rng, rng.randint(2, 3), v.picard_rank)})")
            cases = [] if isinstance(v, GenericCurve) else [("enum-zero", v, None)]
            cases.append(("enum-ulrich", v, _pick(rng, lambda c: (
                d if is_very_ample(v, d := DivisorClass(v, c)) else None), v.picard_rank)))
            cases.append(("search-pb", pb, _pick(rng, lambda c: _criterion_setup(
                v, pb.summands, DivisorClass(v, c)), v.picard_rank)))
            for kind, w, a in cases:
                if kind != "enum-zero" and a is None:
                    continue
                if kind == "enum-zero":
                    result = zero_cohomology_line_bundles(w, box)
                elif kind == "enum-ulrich":
                    result = ulrich_line_bundles(w, a, box)
                else:
                    result = pullback_ulrich_line_search(w, a, box)
                hits, generic = _per_point(kind, w, box, a)
                assert result.results == hits, (seed, kind, w.name, radius)
                assert (GENERIC_NOTE in result.erratum_notes) == generic, (seed, kind, w.name)
                compared += box.volume
    return compared


class TestBoxLimits:
    def test_cap_enforced(self):
        with pytest.raises(BoxTooLarge):
            zero_cohomology_line_bundles(F2, SearchBox.symmetric(F2, 8), cap=100)

    def test_volume(self):
        assert SearchBox.symmetric(F2, 3).volume == 49


class TestGenericCurveDegree:
    @pytest.mark.parametrize("genus,degree", [(0, -1), (1, 0), (3, 2)])
    def test_degree_rule(self, genus, degree):
        assert generic_curve_ulrich_degree(genus) == degree

    def test_degree_gives_vanishing_generic_table(self):
        for g in range(0, 6):
            c = GenericCurve(g)
            d = DivisorClass(c, (generic_curve_ulrich_degree(g),))
            t = cohomology(c, d)
            assert t.is_zero() and (t.generic or g == 0)
