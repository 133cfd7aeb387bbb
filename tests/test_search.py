"""Classification scans and their closed-form cross-checks."""

import contextlib
import importlib
import io
import itertools
import json
import random
from collections import Counter
from math import inf

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
    hirzebruch,
    is_ulrich,
    is_very_ample,
    line_bundle,
    parse_divisor,
    parse_variety,
    pullback_ulrich_criterion,
    pullback_ulrich_line_search,
    serre_partner,
    ulrich_line_bundles,
    zero_cohomology_line_bundles,
)
from ulrichbundles.cli import run
from ulrichbundles.cohomology import _zero_interval
from ulrichbundles.search import GENERIC_NOTE
from ulrichbundles.ulrich import _setup_for

from towers import rank2_tower

ulrich_mod = importlib.import_module("ulrichbundles.ulrich")
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
        # the candidate: a cold scan tests them a fixed number of times,
        # whatever the box; a second scan of the same (X, E, A) none, and a
        # scan with another A as many as a cold one
        picard = importlib.import_module("ulrichbundles.picard")
        original = picard.is_very_ample
        calls = []

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(picard, "is_very_ample", spy)
        monkeypatch.setattr(ulrich_mod, "is_very_ample", spy)
        v = parse_variety("PB(F1;[0,0],[1,1])")

        def count(coords, radius):
            calls.clear()
            pullback_ulrich_line_search(v, DivisorClass(v.base, coords),
                                        SearchBox.symmetric(v.base, radius))
            return len(calls)

        cold = []
        for radius in (1, 5):
            ulrich_mod._setup_for.cache_clear()
            cold.append(count((1, 1), radius))
        assert cold[0] == cold[1] == 2
        assert count((1, 1), 3) == 0
        assert count((2, 1), 3) == cold[0]

    @pytest.mark.parametrize("radius", [1, 3])
    def test_sym_power_built_once_per_scan(self, monkeypatch, radius):
        # Sym^k E does not depend on the candidate: a cold scan builds it
        # once, however many points the box holds; a second scan of the
        # same (X, E, A) builds none, and one with another A builds it again
        original = ulrich_mod.sym_power
        calls = []

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(ulrich_mod, "sym_power", spy)
        counts = []
        for pol in ("[1,1]", "[1,1]", "[2,1]"):
            calls.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                code = run(["search-pb", "PB(F1;[0,0],[1,1])", "--pol", pol,
                            "--box", str(radius), "--json"])
            assert code == 0
            counts.append(len(calls))
        assert counts == [1, 0, 1]


def plant_twists(monkeypatch, summands, k):
    """Make ``cohomology._twist_sums``, which the scan's zero intervals and
    the per-point tables share, answer at every H-degree as for O(kH) on
    P(E), E the sum of O(s) over ``summands``."""
    coh = importlib.import_module("ulrichbundles.cohomology")
    real = coh._twist_sums
    monkeypatch.setattr(coh, "_twist_sums", lambda _, __, n: real(summands, k, n))


class TestClosedFormAgreement:
    """A scan that disagrees with its closed form inside the box is an
    engine bug: plant one in the twist sums, which the zero intervals and
    the per-point route share, so only the closed form can tell, and
    expect exit-3 errors."""

    def test_zero_cohomology_scan(self, monkeypatch):
        # the dead band of a rank-2 bundle: every table zero
        plant_twists(monkeypatch, ((0,), (0,)), -1)
        with pytest.raises(InternalInconsistency, match="zero-cohomology"):
            zero_cohomology_line_bundles(F2, SearchBox.symmetric(F2, 2))

    def test_ulrich_scan(self, monkeypatch):
        # twists 0 and 5 over P^1: no table zero
        plant_twists(monkeypatch, ((0,), (5,)), 1)
        with pytest.raises(InternalInconsistency, match="Ulrich line-bundle"):
            ulrich_line_bundles(F2, DivisorClass(F2, (1, 1)), SearchBox.symmetric(F2, 3))


@pytest.fixture
def fresh_twist_sums():
    """An empty ``_twist_sums`` cache before and after the test, so that
    planted expansions are computed and none outlives the test."""
    coh = importlib.import_module("ulrichbundles.cohomology")
    coh._twist_sums.cache_clear()
    yield
    coh._twist_sums.cache_clear()


class TestRowScan:
    """Zero intervals on every variety, towers included; one re-check of
    the direct sum of the hits, each part of its tables checked."""

    def test_row_fault_caught_by_the_per_hit_recheck(self, monkeypatch):
        # no closed form on a rank-3 bundle: only the re-check can tell
        search = importlib.import_module("ulrichbundles.search")
        real = search._zero_rows

        def widened(v):
            row = real(v)

            def widened_row(rest):
                generic, first, last = row(rest)
                return generic, first, last + 1
            return widened_row

        monkeypatch.setattr(search, "_zero_rows", widened)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = run(["enum-zero", "PB(P1;[0],[1],[3])", "--box", "2", "--json"])
        assert code == 3
        error = json.loads(out.getvalue())
        assert error["error"] == "internal-inconsistency"
        assert "per-point check" in error["detail"]

    def test_negative_row_entry_is_three(self, monkeypatch):
        # a scan tabulates only zero tables, which a negation leaves zero:
        # a nonzero table on a tower, through the closed level F1 at the
        # bottom of its walk
        coh = importlib.import_module("ulrichbundles.cohomology")
        real = coh._twist_sums

        def negated(*args):
            shift, twists, sums = real(*args)
            return shift, twists, [[-x for x in s] for s in sums]

        monkeypatch.setattr(coh, "_twist_sums", negated)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = run(["coh", "PB(F1;[0,0],[1,1])", "[1,1,1]", "--json"])
        assert code == 3
        assert "negative cohomology dimension" in json.loads(out.getvalue())["detail"]

    @pytest.mark.parametrize("mult", [0, -1])
    def test_non_positive_multiplicity_is_three(self, monkeypatch, fresh_twist_sums,
                                                mult):
        # the intervals compute no entries: the twist sums refuse the
        # multiplicity that would make one negative
        coh = importlib.import_module("ulrichbundles.cohomology")
        real = coh.pushforward_terms

        def planted(*args):
            shift, terms = real(*args)
            if terms:
                terms[next(iter(terms))] = mult
            return shift, terms

        monkeypatch.setattr(coh, "pushforward_terms", planted)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = run(["enum-zero", "F3", "--box", "2", "--json"])
        assert code == 3
        error = json.loads(out.getvalue())
        assert error["error"] == "internal-inconsistency"
        assert "non-positive multiplicity" in error["detail"]

    @pytest.mark.parametrize("argv, results", [
        (["enum-zero", "PB(C1;[0],[1])", "--box", "3"],
         [[-3, -1], [-2, -1], [-1, -1], [0, -1], [0, 0], [1, -2], [1, -1], [2, -1],
          [3, -1]]),
        (["enum-ulrich", "C2", "--pol", "[5]", "--box", "6"], [[6]]),
        # the last row's last offset, H-degree 2 - 3, lies in the dead band,
        # whose table is not generic: the flag is OR-ed over rows and offsets
        (["enum-ulrich", "PB(C1;[0],[1],[2])", "--pol", "[3,1]", "--box", "2"], []),
    ])
    def test_curve_scans_carry_the_generic_note(self, argv, results):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert run(argv + ["--json"]) == 0
        assert json.loads(out.getvalue()) == {"results": results,
                                              "erratum_notes": [GENERIC_NOTE]}
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert run(argv) == 0
        assert out.getvalue().splitlines()[-1] == f"note: {GENERIC_NOTE}"

    def test_towers_tabulated_only_at_the_hits(self, monkeypatch):
        # one public-route call per scan, on the direct sum of its hits;
        # none when the box holds no hit
        search = importlib.import_module("ulrichbundles.search")
        calls = []

        def spy(v, hits):
            calls.append(sorted(hits.coords))
            return cohomology(v, hits)

        monkeypatch.setattr(search, "cohomology", spy)
        v = parse_variety("PB(F1;[0,0],[1,1])")
        result = zero_cohomology_line_bundles(v, SearchBox.symmetric(v, 2))
        assert result.results
        assert calls == [list(result.results)]
        calls.clear()
        assert zero_cohomology_line_bundles(v, SearchBox(((5, 6),) * 3)).results == ()
        assert calls == []

    def test_sum_fault_without_a_failing_hit_is_three(self, monkeypatch):
        # a summed re-check that fails while every hit passes alone is an
        # engine fault too
        search = importlib.import_module("ulrichbundles.search")

        def faulty(v, hits):
            return cohomology(v, line_bundle(v, (0, 0)) if len(hits.coords) > 1
                              else hits)

        monkeypatch.setattr(search, "cohomology", faulty)
        with pytest.raises(InternalInconsistency, match="pass one by one"):
            zero_cohomology_line_bundles(F3, SearchBox.symmetric(F3, 2))

    def test_no_divisor_class_per_hit(self, monkeypatch):
        # the hits stay coordinate tuples: a box with about twice the hits
        # builds no more divisor classes
        real = DivisorClass.__post_init__
        built = []

        def counted(self):
            built.append(self.coords)
            real(self)

        run(["enum-zero", "F3", "--box", "12", "--json"])
        monkeypatch.setattr(DivisorClass, "__post_init__", counted)
        counts = []
        for box in ("12", "24"):
            built.clear()
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert run(["enum-zero", "F3", "--box", box, "--json"]) == 0
            assert len(json.loads(out.getvalue())["results"]) > int(box) * 2
            counts.append(len(built))
        assert counts[0] == counts[1]

    def test_cancelling_hits_are_three(self, monkeypatch):
        # h^1 = -1 at each of the five hits (i, -1) and 5 at (-1, 0) sum to
        # a zero table: only the check of each term as it is summed can
        # tell.  The planted power sums keep the real twists of each H-degree
        # (none at k = -1, the dead band, and [0] at k = 0), so the rows'
        # zero intervals, and with them the hits, stay those of F3
        coh = importlib.import_module("ulrichbundles.cohomology")
        real = coh._twist_sums
        planted = {-1: (0, [], [[1], [0]]), 0: (0, [0], [[-5, -5], [0, 1]])}

        def cancelling(summands, k, n):
            return planted[k] if k in planted else real(summands, k, n)

        monkeypatch.setattr(coh, "_twist_sums", cancelling)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = run(["enum-zero", "F3", "--box", "2", "--json"])
        assert code == 3
        error = json.loads(out.getvalue())
        assert error["error"] == "internal-inconsistency"
        assert error["detail"] == "negative cohomology dimension in (0, -1, 0)"

    @pytest.mark.parametrize("mult", [0, -1])
    def test_non_positive_walk_multiplicity_is_three(self, monkeypatch, mult):
        # the intervals of a tower read no multiplicity and every part at a
        # hit is zero: the check of each multiplicity as it is summed
        # refuses the planted one
        coh = importlib.import_module("ulrichbundles.cohomology")
        real = coh.push_down

        def planted(*args):
            terms = real(*args)
            if terms:
                terms[next(iter(terms))] = mult
            return terms

        monkeypatch.setattr(coh, "push_down", planted)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = run(["enum-zero", "PB(F1;[0,0],[1,1])", "--box", "2", "--json"])
        assert code == 3
        error = json.loads(out.getvalue())
        assert error["error"] == "internal-inconsistency"
        assert "non-positive multiplicity" in error["detail"]

    def test_sweep_slice(self):
        assert scan_sweep(range(1, 6)) >= 13000

    def test_pooled_sweep_slice(self):
        # the benchmark's F_r boxes, past scan_sweep's radius 6
        assert pooled_scan_sweep([
            ("enum-zero", "F3", "--box", "12", "--json"),
            ("enum-ulrich", "F2", "--pol", "[1,1]", "--box", "10", "--json"),
            ("search-pb", "PB(C2;[0],[1],[0])", "--pol", "[6]", "--box", "60", "--json"),
        ]) == 625 + 441 + 121


def _summands(rng, rank, width):
    """Seeded summands of a split E, negative and repeated ones included."""
    pool = [[rng.randint(-2, 3) for _ in range(width)] for _ in range(2)]
    return ",".join(str(rng.choice(pool)).replace(" ", "") for _ in range(rank))


def _bundle_names(rng):
    """Seeded P(E) over P^1 (rank 2-4), P^2, P^3 and a curve, and the
    towers of ``_tower_names`` over F_r, P^2 and a curve."""
    names = [f"PB(P1;{_summands(rng, rank, 1)})" for rank in (2, 3, 4)]
    names += [f"PB(P{n};{_summands(rng, rng.randint(2, 3), 1)})" for n in (2, 3)]
    names += [f"PB(C{rng.randint(0, 3)};{_summands(rng, rng.randint(2, 3), 1)})"]
    return names + _tower_names(rng)


def _tower_names(rng):
    """Seeded depth-2 towers: P(E) over F_r (rank 2-3), over a P(E) over
    P^2 and over a P(E) over a curve."""
    return [f"PB(F{rng.randint(0, 4)};{_summands(rng, rng.randint(2, 3), 2)})"] + [
        f"PB(PB({b};{_summands(rng, 2, 1)});{_summands(rng, 2, 2)})"
        for b in ("P2", f"C{rng.randint(0, 3)}")]


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
    past the twists and across the dead bands, and are 2 on the towers;
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
            cases.append(("search-pb", pb, _pick(rng, lambda c: (
                d if _setup_for(v, pb.summands, d := DivisorClass(v, c)) else None),
                v.picard_rank)))
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


def pooled_scan_sweep(argvs) -> int:
    """Hits and the generic note of ``enum-zero``, ``enum-ulrich`` and
    ``search-pb`` CLI requests (``--box`` and ``--json`` given) against
    the per-point route (``_per_point``) at every point of their boxes;
    returns the number of points compared.  CI runs the distinct requests
    of the benchmark's ``scan`` pool, whose boxes reach past
    ``scan_sweep``'s: radius 12 on F_r, 60 on curves, 300 on P^1."""
    compared = 0
    for argv in dict.fromkeys(map(tuple, argvs)):
        kind, v = argv[0], parse_variety(argv[1])
        radius = int(argv[argv.index("--box") + 1])
        base = v.base if kind == "search-pb" else v
        a = (parse_divisor(argv[argv.index("--pol") + 1], base)
             if "--pol" in argv else None)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert run(list(argv)) == 0, argv
        result = json.loads(out.getvalue())
        box = SearchBox.symmetric(base, radius)
        hits, generic = _per_point(kind, v, box, a)
        assert result["results"] == [list(c) for c in hits], argv
        assert (GENERIC_NOTE in result["erratum_notes"]) == generic, argv
        compared += box.volume
    return compared


def interval_sweep(seeds) -> int:
    """``cohomology._zero_interval`` against the per-point tables of
    ``cohomology`` at every point of seeded boxes over P^1..P^3, the
    curves C0..C3, a seeded P(E) of rank 2-4 over each, the seeded towers
    of ``_tower_names`` and ``rank2_tower(3)``, negative and repeated
    summands included: a lies in its row's interval iff the table of
    O(a, *row) is zero, and the interval's generic flag is the table's.
    Radii run from 2 to 12 up to Picard rank 2, past the twists and across
    the dead bands, to 4 on the depth-2 towers and are 2 on
    ``rank2_tower(3)``.  Asserts that rows of every kind occurred, both
    on the towers and below them: dead-band rows (every a zero), rows
    whose nonempty interval lies wholly outside the box, and rows with
    hits.  Returns the number of points compared.  CI runs seeds 1..100."""
    compared, kinds = 0, Counter()
    for seed in seeds:
        rng = random.Random(seed)
        bases = ["P1", "P2", "P3"] + [f"C{g}" for g in range(4)]
        names = bases + [f"PB({b};{_summands(rng, rng.randint(2, 4), 1)})" for b in bases]
        towers = _tower_names(rng) + [rank2_tower(3)]
        for name in names + towers:
            v, tower = parse_variety(name), name in towers
            radius = rng.randint(2, {1: 12, 2: 12, 3: 4}.get(v.picard_rank, 2))
            (lo, hi), *rest = SearchBox.symmetric(v, radius).bounds
            for tail in itertools.product(*(range(a, b + 1) for a, b in rest)):
                generic, first, last = _zero_interval(v, tail)
                for a in range(lo, hi + 1):
                    table = cohomology(v, DivisorClass(v, (a, *tail)))
                    assert (first <= a <= last) == table.is_zero(), (seed, name, a, tail)
                    assert generic == table.generic, (seed, name, a, tail)
                kinds["dead band", tower] += first == -inf
                kinds["outside", tower] += first <= last and (last < lo or first > hi)
                kinds["hits", tower] += max(first, lo) <= min(last, hi)
                compared += hi - lo + 1
    assert all(kinds[k, tower] for k in ("dead band", "outside", "hits")
               for tower in (False, True)), kinds
    return compared


class TestZeroInterval:
    def test_sweep_slice(self):
        assert interval_sweep(range(1, 4)) >= 7000

    def test_tables_only_at_the_hits(self, monkeypatch):
        # 641601 points, under the default cap of 10^6; tabulated: the
        # fibre row (i, -1), (-1, 0) and (2, -2), each once by the one
        # pass of its re-check, which looks its power sums up once per
        # H-degree
        coh = importlib.import_module("ulrichbundles.cohomology")
        real_table, real_sums, real_bisect = (coh._closed_level_table, coh._twist_sums,
                                              coh.bisect_left)
        terms, degrees, evaluated = [], [], []
        inside = []

        def table(v, level_terms, dim):
            terms.extend(level_terms.items())
            inside.append(True)
            try:
                return real_table(v, level_terms, dim)
            finally:
                inside.pop()

        def sums(summands, k, n):
            if inside:
                degrees.append(k)
            return real_sums(summands, k, n)

        def bisect(twists, x):
            if inside:
                evaluated.append(-x - 1)  # x = a + 1 over P^1
            return real_bisect(twists, x)

        monkeypatch.setattr(coh, "_closed_level_table", table)
        monkeypatch.setattr(coh, "_twist_sums", sums)
        monkeypatch.setattr(coh, "bisect_left", bisect)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert run(["enum-zero", "F3", "--box", "400", "--json"]) == 0
        hits = [tuple(c) for c in json.loads(out.getvalue())["results"]]
        assert len(hits) == 803
        assert sorted(coords for (shift, coords), mult in terms) == hits
        assert all(shift == 0 and mult == 1 for (shift, _), mult in terms)
        assert sorted(evaluated) == sorted(a for a, _ in hits)
        assert sorted(degrees) == sorted({k for _, k in hits}) == [-2, -1, 0]


class TestBoxLimits:
    def test_cap_enforced(self):
        with pytest.raises(BoxTooLarge):
            zero_cohomology_line_bundles(F2, SearchBox.symmetric(F2, 8), cap=100)

    def test_volume(self):
        assert SearchBox.symmetric(F2, 3).volume == 49

