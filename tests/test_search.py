"""Classification scans and their closed-form cross-checks."""

import importlib

import pytest

from ulrichbundles import (
    BoxTooLarge,
    DivisorClass,
    GenericModeUnsupported,
    GenericCurve,
    NotVeryAmple,
    ProjSpace,
    SearchBox,
    cohomology,
    direct_ulrich_check,
    generic_curve_ulrich_degree,
    hirzebruch,
    is_ulrich,
    line_bundle,
    parse_variety,
    pullback_ulrich_line_search,
    serre_partner,
    ulrich_line_bundles,
    zero_cohomology_line_bundles,
)

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
