"""Ulrich verdicts: definition, Serre partner, criterion vs direct, probe."""

import random

import pytest

from ulrichbundles import (
    BadTwist,
    DivisorClass,
    GenericCurve,
    Hirzebruch,
    NotVeryAmple,
    ProjBundle,
    ProjSpace,
    SplitBundle,
    cohomology,
    direct_ulrich_check,
    is_ulrich,
    line_bundle,
    minimal_ample_direction,
    parse_bundle,
    parse_variety,
    pullback_ulrich_criterion,
    semiorthogonality_probe,
    serre_partner,
    very_ample_threshold,
)

P1 = ProjSpace(1)
P2 = ProjSpace(2)
F0 = Hirzebruch(0)
F1 = Hirzebruch(1)
F2 = Hirzebruch(2)


class TestDefinition:
    def test_f1_section(self):
        r = is_ulrich(F1, line_bundle(F1, (0, 1)), DivisorClass(F1, (1, 1)))
        assert r.verdict and len(r.checks) == 2

    def test_trivial_on_p2(self):
        r = is_ulrich(P2, line_bundle(P2, (0,)), DivisorClass(P2, (1,)))
        assert r.verdict

    def test_o1_fails_at_first_twist(self):
        r = is_ulrich(P2, line_bundle(P2, (1,)), DivisorClass(P2, (1,)))
        assert not r.verdict
        assert r.checks[0].label == "-1A" and r.checks[0].table.h == (1, 0, 0)

    def test_verdict_is_conjunction(self):
        r = is_ulrich(F2, line_bundle(F2, (3, 0)), DivisorClass(F2, (1, 1)))
        assert r.verdict == all(c.ok for c in r.checks)

    def test_polarisation_validated(self):
        with pytest.raises(NotVeryAmple):
            is_ulrich(P2, line_bundle(P2, (0,)), DivisorClass(P2, (0,)))


class TestSerrePartner:
    def test_f2_partner(self):
        partner, special = serre_partner(
            F2, line_bundle(F2, (0, 1)), DivisorClass(F2, (1, 1)))
        assert partner.multiset() == ((3, 0),) and not special

    def test_self_partner_on_p2(self):
        partner, special = serre_partner(
            P2, line_bundle(P2, (0,)), DivisorClass(P2, (1,)))
        assert partner.multiset() == ((0,),) and special

    def test_quadric(self):
        partner, _ = serre_partner(
            F0, line_bundle(F0, (0, 1)), DivisorClass(F0, (1, 1)))
        assert partner.multiset() == ((1, 0),)

    def test_involution(self):
        a = DivisorClass(F2, (2, 1))
        for coords in [(0, 1), (3, 0), (1, -2), (2, 2)]:
            f = line_bundle(F2, coords)
            once, _ = serre_partner(F2, f, a)
            twice, _ = serre_partner(F2, once, a)
            assert twice.same_summands(f)

    def test_partner_of_ulrich_is_ulrich(self):
        a = DivisorClass(F1, (2, 1))
        f = line_bundle(F1, (1, 1))
        assert is_ulrich(F1, f, a).verdict
        partner, _ = serre_partner(F1, f, a)
        assert is_ulrich(F1, partner, a).verdict


class TestCriterion:
    def test_scroll_over_p1(self):
        e = parse_bundle("{[0],[2]}", P1)
        r = pullback_ulrich_criterion(P1, e, line_bundle(P1, (-1,)),
                                      DivisorClass(P1, (1,)))
        assert r.verdict and len(r.checks) == 1
        assert any("curve base" in n for n in r.notes)

    def test_blowup_line_bundle_fails(self):
        e = parse_bundle("{[1],[0]}", P2)
        r = pullback_ulrich_criterion(P2, e, line_bundle(P2, (-1,)),
                                      DivisorClass(P2, (1,)))
        assert not r.verdict
        assert r.checks[1].table.h == (0, 0, 3)

    def test_quadric_base_line_bundle(self):
        e = parse_bundle("{[0,0],[0,1]}", F0)
        r = pullback_ulrich_criterion(F0, e, line_bundle(F0, (-1, 2)),
                                      DivisorClass(F0, (1, 1)))
        assert r.verdict
        assert any("D' = [2,3]" in n for n in r.notes)

    def test_d_prime_flag_reported_not_assumed(self):
        e = parse_bundle("{[0,0],[0,1]}", F0)
        r = pullback_ulrich_criterion(F0, e, line_bundle(F0, (-1, 2)),
                                      DivisorClass(F0, (1, 1)))
        assert any("reported, not assumed" in n for n in r.notes)

    def test_not_very_ample_rejected(self):
        e = parse_bundle("{[1],[0]}", P2)
        with pytest.raises(NotVeryAmple):
            pullback_ulrich_criterion(P2, e, line_bundle(P2, (-1,)),
                                      DivisorClass(P2, (0,)))

    def test_generic_flag_on_curve_base(self):
        c = GenericCurve(3)
        e = parse_bundle("{[0],[1]}", c)
        r = pullback_ulrich_criterion(c, e, line_bundle(c, (2,)),
                                      DivisorClass(c, (7,)))
        assert r.generic and r.verdict


class TestDirect:
    def test_f1_as_bundle_over_p1(self):
        v = parse_variety("PB(P1;[0],[1])")
        r = direct_ulrich_check(v, line_bundle(P1, (-1,)), DivisorClass(P1, (1,)))
        assert r.verdict and len(r.checks) == v.dim

    def test_blowup_fails_at_last_twist(self):
        v = parse_variety("PB(P2;[1],[0])")
        r = direct_ulrich_check(v, line_bundle(P2, (-1,)), DivisorClass(P2, (1,)))
        assert not r.verdict
        assert r.checks[2].label == "-3D" and r.checks[2].table.h == (0, 0, 0, 3)

    def test_kernel_candidate(self):
        from ulrichbundles import TwistedKernel, staircase_presentation

        v = parse_variety("PB(P2;[1],[0])")
        kern = TwistedKernel(staircase_presentation(2, 1), 0)
        r = direct_ulrich_check(v, kern, DivisorClass(P2, (1,)))
        assert r.verdict and [c.table.h for c in r.checks] == [(0, 0, 0, 0)] * 3

    @pytest.mark.parametrize("shift, tables", [
        (-1, [(0, 3, 0, 0, 0), (0,) * 5, (0,) * 5, (0, 0, 0, 0, 23)]),
        (0, [(0,) * 5] * 3 + [(0, 0, 0, 0, 5)]),
        (1, [(10, 0, 0, 0, 0), (0,) * 5, (0, 0, 2, 0, 0), (0,) * 5]),
    ])
    def test_kernel_candidate_dual_branch(self, shift, tables):
        # on PB(P3;[1],[0]) the -4D twist is k = -3, Sym power 1 on the
        # k <= -rank branch
        from ulrichbundles import TwistedKernel, staircase_presentation

        v = parse_variety("PB(P3;[1],[0])")
        kern = TwistedKernel(staircase_presentation(3, 1), shift)
        r = direct_ulrich_check(v, kern, DivisorClass(ProjSpace(3), (1,)))
        assert not r.verdict and [c.table.h for c in r.checks] == tables

    def test_agreement_note(self):
        v = parse_variety("PB(P1;[0],[1])")
        r = direct_ulrich_check(v, line_bundle(P1, (-1,)), DivisorClass(P1, (1,)))
        assert any("criterion agrees" in n for n in r.notes)


class TestCriterionDirectEquivalence:
    def test_seeded_random_instances(self):
        rng = random.Random(987123)
        bases = [P1, P2, F0, F1, F2, Hirzebruch(3)]
        agreements = 0
        for _ in range(120):
            base = rng.choice(bases)
            rank = rng.randint(2, 4)
            e = SplitBundle(base, tuple(
                DivisorClass(base, tuple(rng.randint(-3, 3)
                                         for _ in range(base.picard_rank)))
                for _ in range(rank)))
            f = line_bundle(base, tuple(rng.randint(-4, 4)
                                        for _ in range(base.picard_rank)))
            v = ProjBundle(base, e)
            t = very_ample_threshold(v, minimal_ample_direction(base))
            a = t * minimal_ample_direction(base)
            crit = pullback_ulrich_criterion(base, e, f, a)
            direct = direct_ulrich_check(v, f, a)  # cross-asserts internally
            assert crit.verdict == direct.verdict
            agreements += 1
        assert agreements == 120


class TestSurfaceReduction:
    def test_k0_table_equals_f_minus_d_prime(self):
        for coords in [(0, 1), (-1, 2), (2, -3)]:
            e = parse_bundle("{[0,0],[1,1],[0,1]}", F1)
            f = line_bundle(F1, coords)
            a = DivisorClass(F1, (1, 1))
            r = pullback_ulrich_criterion(F1, e, f, a)
            d_prime = e.rank * a + e.c1
            expected = cohomology(F1, f.twist(-1 * d_prime))
            assert r.checks[1].table.h == expected.h


class TestProbe:
    def test_zero_for_inner_twists(self):
        v = parse_variety("PB(P2;[1],[0])")
        t = semiorthogonality_probe(v, DivisorClass(P2, (2,)),
                                    DivisorClass(P2, (-5,)), 1)
        assert t.is_zero()

    def test_scroll(self):
        v = parse_variety("PB(P1;[0],[3])")
        t = semiorthogonality_probe(v, DivisorClass(P1, (2,)),
                                    DivisorClass(P1, (-1,)), 1)
        assert t.is_zero()

    def test_identity_at_p_zero(self):
        v = parse_variety("PB(P1;[0],[3])")
        t = semiorthogonality_probe(v, DivisorClass(P1, (1,)),
                                    DivisorClass(P1, (1,)), 0)
        assert t.h[0] >= 1

    def test_box_vanishing(self):
        # the probe only depends on L2 - L1, so scanning the difference over
        # the Minkowski box of two +-5 boxes covers every pair
        import itertools

        v = parse_variety("PB(P1xP1;[0,0],[0,1],[1,0])")
        base = v.base
        origin = DivisorClass(base, (0, 0))
        for diff in itertools.product(range(-10, 11), repeat=2):
            for p in range(1, v.rank):
                t = semiorthogonality_probe(v, origin,
                                            DivisorClass(base, diff), p)
                assert t.is_zero()

    def test_bad_twist(self):
        v = parse_variety("PB(P1;[0],[3])")
        with pytest.raises(BadTwist):
            semiorthogonality_probe(v, DivisorClass(P1, (0,)),
                                    DivisorClass(P1, (0,)), 2)
