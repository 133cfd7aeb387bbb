"""Ulrich verdicts: definition, Serre partner, criterion vs direct, probe."""

import itertools
import random

import pytest

from ulrichbundles import (
    BadTwist,
    CohomologyTable,
    DivisorClass,
    GenericCurve,
    InternalInconsistency,
    NotVeryAmple,
    ProjBundle,
    ProjSpace,
    SearchBox,
    SplitBundle,
    TwistedKernel,
    UnsupportedVariety,
    cohomology,
    direct_ulrich_check,
    hirzebruch,
    is_ample,
    is_ulrich,
    is_very_ample,
    kernel_cohomology,
    line_bundle,
    minimal_ample_direction,
    parse_bundle,
    parse_variety,
    pullback_ulrich_criterion,
    pullback_ulrich_line_search,
    semiorthogonality_probe,
    serre_partner,
    staircase_presentation,
    sym_euler_presentation,
    sym_power,
    very_ample_threshold,
    zero_divisor,
)
from ulrichbundles.cohomology import push_down, pushforward_table
from ulrichbundles.ulrich import Polarisation, _criterion_setup, _setup_for

P1 = ProjSpace(1)
P2 = ProjSpace(2)
F0 = hirzebruch(0)
F1 = hirzebruch(1)
F2 = hirzebruch(2)


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


class TestCandidates:
    """Split bundles and objects with ``twisted_table`` are candidates;
    a kernel is tabulated on its own P^n only."""

    def test_bare_presentation_refused(self):
        pres = staircase_presentation(2, 1)
        with pytest.raises(UnsupportedVariety, match="not an Ulrich candidate"):
            is_ulrich(P2, pres, DivisorClass(P2, (3,)))

    @pytest.mark.parametrize("v", [ProjSpace(3), F1], ids=["P3", "F1"])
    def test_kernel_on_another_variety_refused(self, v):
        kern = TwistedKernel(staircase_presentation(2, 1), 3)
        with pytest.raises(UnsupportedVariety, match="kernel presentation is on P"):
            pullback_ulrich_criterion(v, SplitBundle(v, (zero_divisor(v),) * 2), kern,
                                      DivisorClass(v, (1,) * v.picard_rank))


class TestCriterionDirectEquivalence:
    def test_seeded_random_instances(self):
        rng = random.Random(987123)
        bases = [P1, P2, F0, F1, F2, hirzebruch(3)]
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


class TestBottTowers:
    """Bott-tower 3-folds X = P(O + O(D)) over F_r as bases of P(E): the
    criterion runs its k = 1 Sym term on a base other than P^3."""

    def test_seeded_sweep_direct_agrees_with_criterion(self):
        rng = random.Random(20261018)
        checked = 0
        for _ in range(40):
            fr = hirzebruch(rng.randint(0, 2))
            d = (rng.randint(-2, 2), rng.randint(-1, 1))
            x = ProjBundle(fr, SplitBundle(fr, (DivisorClass(fr, (0, 0)),
                                                DivisorClass(fr, d))))
            e = SplitBundle(x, tuple(
                DivisorClass(x, tuple(rng.randint(-1, 1) for _ in range(3)))
                for _ in range(rng.randint(2, 3))))
            c = max(1, 1 - d[0], 1 - d[1])
            direction = DivisorClass(x, (c, c, 1))
            assert is_ample(x, direction)
            v = ProjBundle(x, e)
            a = very_ample_threshold(v, direction) * direction
            # candidates with H^*(X, F) = 0 pass the first check, so the
            # k = 0 and k = 1 terms decide; one more is drawn at random
            zero = [cd for cd in itertools.product(range(-2, 3), repeat=3)
                    if cohomology(x, DivisorClass(x, cd)).is_zero()]
            picks = rng.sample(zero, min(2, len(zero)))
            picks.append(tuple(rng.randint(-3, 3) for _ in range(3)))
            for cd in picks:
                report = direct_ulrich_check(v, line_bundle(x, cd), a)
                assert len(report.checks) == v.dim
                checked += 1
        assert checked > 80

    def test_segre_fourfold_hits(self):
        # (P^1)^4 as P(O + O) over the Bott tower (P^1)^3: its Ulrich line
        # bundles for O(1,1,1,1) are the permutations of O(0,1,2,3), so the
        # pulled-back ones, F + (1,1,1) with last entry 1, are the
        # permutations of (-1, 1, 2)
        x = parse_variety("PB(P1xP1;[0,0],[0,0])")
        v = parse_variety("PB(PB(P1xP1;[0,0],[0,0]);[0,0,0],[0,0,0])")
        a = DivisorClass(x, (1, 1, 1))
        result = pullback_ulrich_line_search(v, a, SearchBox.symmetric(x, 2))
        assert set(result.results) == set(itertools.permutations((-1, 1, 2)))
        for cd in result.results:
            assert direct_ulrich_check(v, line_bundle(x, cd), a).verdict


def reference_base_table(v, cand, twist):
    """The per-twist route: one table, and one walk, per base twist."""
    if isinstance(cand, SplitBundle):
        return cohomology(v, cand.twist(twist))
    return kernel_cohomology(cand.presentation, cand.shift + twist.coords[0])


def reference_sum(tables):
    """Tables added entrywise, generic if any part is."""
    h = [sum(col) for col in zip(*(t.h for t in tables))]
    return CohomologyTable.make(h, any(t.generic for t in tables))


def reference_definition(v, cand, a):
    return [reference_base_table(v, cand, -i * a) for i in range(1, v.dim + 1)]


def reference_criterion(x, e, cand, a):
    """The F table, then per k the sum of one table per Sym^k summand."""
    tables = [reference_base_table(x, cand, zero_divisor(x))]
    for k in range(x.dim - 1):
        twist = -1 * e.c1 - (e.rank + k) * a
        tables.append(reference_sum([reference_base_table(x, cand, twist - s)
                                     for s in sym_power(e, k).summands]))
    return tables


def reference_direct(pb, cand, a):
    """Per -iD twist, one base table per pushforward term."""
    tables = []
    for i in range(1, pb.dim + 1):
        terms = push_down(pb, {(0, ((1 - i) * a).coords + (1 - i,)): 1})
        tables.append(pushforward_table(pb.dim, terms, lambda e: reference_base_table(
            pb.base, cand, DivisorClass(pb.base, e))))
    return tables


def outcomes(tables):
    return [(t.h, t.generic) for t in tables]


# bases of P(E): curves reach the generic flag, the last two are towers
_WALK_BASES = ["P1", "P2", "F0", "F1", "F2", "C1", "C2", "PB(F1;[0,0],[1,1])",
               "PB(PB(P1;[0],[1]);[0,0],[0,1])"]


class TestOneWalkPerCheck:
    """Every check of the definition, the criterion and the direct check
    against the per-twist route, on the same polarisation."""

    @staticmethod
    def assert_same(report, tables):
        assert outcomes(c.table for c in report.checks) == outcomes(tables), report

    def check_all(self, x, e, cand, a):
        """Runs every applicable check; returns how many were generic."""
        pb = ProjBundle(x, e)
        reports = [(pullback_ulrich_criterion(x, e, cand, a),
                    reference_criterion(x, e, cand, a)),
                   (direct_ulrich_check(pb, cand, a), reference_direct(pb, cand, a))]
        if isinstance(cand, SplitBundle):
            # pullback(cand)(D) on P(E) itself, D = pullback(A) + H
            d = DivisorClass(pb, a.coords + (1,))
            lifted = SplitBundle(pb, tuple(DivisorClass(pb, s.coords + (0,)) + d
                                           for s in cand.summands))
            reports.append((is_ulrich(pb, lifted, d), reference_definition(pb, lifted, d)))
        if is_very_ample(x, a):
            reports.append((is_ulrich(x, cand, a), reference_definition(x, cand, a)))
        for report, tables in reports:
            self.assert_same(report, tables)
        return sum(c.table.generic for report, _ in reports for c in report.checks)

    def test_split_candidates_with_repeated_summands(self):
        rng = random.Random(20261019)
        generic = 0
        for _ in range(36):
            x = parse_variety(rng.choice(_WALK_BASES))
            draw = [DivisorClass(x, tuple(rng.randint(-2, 2) for _ in range(x.picard_rank)))
                    for _ in range(5)]
            e = SplitBundle(x, tuple(draw[:rng.randint(2, 3)]))
            parts = draw[3:3 + rng.randint(1, 2)]
            # one summand twice, and one that is the first moved by a
            # difference of summands of E, so that twists of two different
            # summands coincide and must be merged
            moved = parts[0] + e.summands[1] - e.summands[0]
            cand = SplitBundle(x, tuple(parts + [parts[0], moved]))
            pb = ProjBundle(x, e)
            direction = minimal_ample_direction(x)
            a = (very_ample_threshold(pb, direction) + rng.randint(0, 1)) * direction
            generic += self.check_all(x, e, cand, a)
        assert generic > 0  # the curve bases reach the generic flag

    @pytest.mark.parametrize("ones", [1, 2])
    def test_kernel_candidates(self, ones):
        # P(O(1) + O^ones) over P^2
        e = SplitBundle(P2, (DivisorClass(P2, (1,)),) + (DivisorClass(P2, (0,)),) * ones)
        a = DivisorClass(P2, (1,))
        for pres in (staircase_presentation(2, 1), sym_euler_presentation(2, 1)):
            for shift in (-1, 0, 1):
                self.check_all(P2, e, TwistedKernel(pres, shift), a)


class TestCriterionSetup:
    def test_setup_for_another_bundle_refused(self):
        e1 = parse_bundle("{[0],[1]}", P1)
        e2 = parse_bundle("{[0],[2]}", P1)
        setup = _criterion_setup(P1, e1, DivisorClass(P1, (1,)))
        with pytest.raises(InternalInconsistency):
            pullback_ulrich_criterion(P1, e2, line_bundle(P1, (-1,)), setup)

    def test_setup_for_another_base_refused(self):
        e = parse_bundle("{[0],[1]}", P2)
        setup = _criterion_setup(P2, e, DivisorClass(P2, (1,)))
        with pytest.raises(InternalInconsistency):
            pullback_ulrich_criterion(P1, parse_bundle("{[0],[1]}", P1),
                                      line_bundle(P1, (-1,)), setup)

    def test_setup_built_once_per_base_bundle_and_divisor(self):
        # a Polarisation keys by its divisor, and a divisor equal to an
        # earlier one finds that one's setup
        v = parse_variety("PB(F1;[0,0],[1,1])")
        a = DivisorClass(v.base, (1, 1))
        setup = _criterion_setup(v.base, v.summands, a)
        assert _criterion_setup(v.base, v.summands, DivisorClass(v.base, (1, 1))) is setup
        assert _criterion_setup(v.base, v.summands, Polarisation(a)) is setup
        assert _criterion_setup(v.base, v.summands, setup) is setup
        other = _criterion_setup(v.base, v.summands, DivisorClass(v.base, (2, 1)))
        assert other is not setup and other.pol.divisor.coords == (2, 1)
        info = _setup_for.cache_info()
        assert (info.misses, info.currsize, info.maxsize) == (2, 2, 256)

    def test_shared_setup_is_read_only(self):
        v = parse_variety("PB(P3;[0],[1],[1])")
        setup = _criterion_setup(v.base, v.summands, DivisorClass(v.base, (1,)))
        f = line_bundle(v.base, (-1,))
        before = pullback_ulrich_criterion(v.base, v.summands, f, setup)
        for _, terms in setup.twists:
            with pytest.raises(TypeError):
                terms[(0, (0,))] = 1
            with pytest.raises(AttributeError):
                terms.clear()
        assert pullback_ulrich_criterion(
            v.base, v.summands, f, DivisorClass(v.base, (1,))) == before

    def test_refused_setup_is_not_memoised(self):
        e = parse_bundle("{[0],[1]}", P1)
        messages = []
        for _ in range(2):
            with pytest.raises(NotVeryAmple) as err:
                _criterion_setup(P1, e, DivisorClass(P1, (0,)))
            messages.append(str(err.value))
        assert messages[0] == messages[1] == (
            "pullback([0]) + H is not very ample on F1")
        assert _setup_for.cache_info().currsize == 0

    def test_setup_gives_the_report_of_its_divisor(self):
        v = parse_variety("PB(P3;[0],[1],[1])")
        a = DivisorClass(v.base, (1,))
        setup = _criterion_setup(v.base, v.summands, a)
        assert [label for label, _ in setup.twists] == ["k=0", "k=1"]
        for coords in [(-1,), (0,), (-2,)]:
            f = line_bundle(v.base, (coords[0],))
            assert (pullback_ulrich_criterion(v.base, v.summands, f, setup)
                    == pullback_ulrich_criterion(v.base, v.summands, f, a))


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
