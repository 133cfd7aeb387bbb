"""Ulrich verdicts: definition, Serre partner, criterion vs direct, probe."""

import itertools
import random

import pytest

from ulrichbundles import (
    BadTwist,
    CohomologyTable,
    DivisorClass,
    EngineError,
    GenericCurve,
    NotVeryAmple,
    ProjBundle,
    ProjSpace,
    SearchBox,
    SplitBundle,
    TwistedKernel,
    UnsupportedVariety,
    cohomology,
    direct_ulrich_check,
    euler_characteristic,
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
    toric_cech_oracle,
    ulrich_line_bundles,
    very_ample_threshold,
    zero_divisor,
)
from ulrichbundles.cohomology import push_down, pushforward_table
from ulrichbundles.ulrich import Polarisation, _setup_for

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
    def test_setup_built_once_per_base_bundle_and_divisor(self):
        # a divisor equal to an earlier one finds that one's setup
        v = parse_variety("PB(F1;[0,0],[1,1])")
        a = DivisorClass(v.base, (1, 1))
        setup = _setup_for(v.base, v.summands, a)
        assert _setup_for(v.base, v.summands, DivisorClass(v.base, (1, 1))) is setup
        other = _setup_for(v.base, v.summands, DivisorClass(v.base, (2, 1)))
        assert other is not setup and other.pol.divisor.coords == (2, 1)
        info = _setup_for.cache_info()
        assert (info.misses, info.currsize, info.maxsize) == (2, 2, 256)

    def test_shared_setup_is_read_only(self):
        v = parse_variety("PB(P3;[0],[1],[1])")
        a = DivisorClass(v.base, (1,))
        setup = _setup_for(v.base, v.summands, a)
        f = line_bundle(v.base, (-1,))
        before = pullback_ulrich_criterion(v.base, v.summands, f, a)
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
                _setup_for(P1, e, DivisorClass(P1, (0,)))
            messages.append(str(err.value))
        assert messages[0] == messages[1] == (
            "pullback([0]) + H is not very ample on F1")
        assert _setup_for.cache_info().currsize == 0


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


class TestForeignInputs:
    def test_seeded_sweep(self):
        # CI runs seeds 1-100.  Per seed: 12 + 20 ordered pairs of distinct
        # varieties of Picard rank 1 and 2, 18 calls each, and the oracle
        # on the 2 + 4 toric ones, with 3 and 4 partners
        assert foreign_input_sweep(range(1, 6)) == 5 * (32 * 18 + 2 * 3 + 4 * 4)

    def test_polarisation_gives_no_verdict(self):
        # A is a divisor class checked on the variety it is used on: [1, 1]
        # is very ample on F1 but not on P(O + O(-1)), and a Polarisation
        # built on either is no A
        x = parse_variety("PB(P1;[0],[-1])")
        f = line_bundle(x, (0, 1))
        with pytest.raises(NotVeryAmple):
            is_ulrich(x, f, DivisorClass(x, (1, 1)))
        box = SearchBox.symmetric(x, 1)
        pb = ProjBundle(x, parse_bundle("{[0,0],[1,0]}", x))
        for pol in (Polarisation.check(F1, DivisorClass(F1, (1, 1))),
                    Polarisation.check(x, DivisorClass(x, (2, 1)))):
            with pytest.raises(UnsupportedVariety):
                is_ulrich(x, f, pol)
            with pytest.raises(UnsupportedVariety):
                ulrich_line_bundles(x, pol, box)
            with pytest.raises(UnsupportedVariety):
                pullback_ulrich_criterion(x, pb.summands, f, pol)
            with pytest.raises(UnsupportedVariety):
                direct_ulrich_check(pb, f, pol)
            with pytest.raises(UnsupportedVariety):
                pullback_ulrich_line_search(pb, pol, box)
            with pytest.raises(TypeError):
                serre_partner(x, f, pol)


# per variety: a very ample A, with which D = pullback(A) + H is very ample
# on P(O + O(first basis class)) over it
FOREIGN_VARIETIES = {"P1": (1,), "P2": (1,), "C0": (1,), "C2": (5,),
                     "F0": (1, 1), "F1": (1, 1), "F3": (1, 1),
                     "PB(P1;[0],[-1])": (2, 1), "PB(C1;[0],[1])": (3, 1)}


def _foreign_calls(rng, v, a_coords):
    """(entry point, call) pairs on v: ``call(w)`` puts one input of the
    entry point (both divisors, in one probe call), with seeded
    coordinates or A's, on the variety w and gives every other input on
    v."""
    a = DivisorClass(v, a_coords)
    e = SplitBundle(v, (zero_divisor(v), DivisorClass(v, (1,) + (0,) * (v.picard_rank - 1))))
    pb = ProjBundle(v, e)
    assert is_very_ample(v, a) and _setup_for(v, e, a)
    c1, c2 = (tuple(rng.randint(-3, 3) for _ in range(v.picard_rank)) for _ in range(2))
    f = line_bundle(v, c1)
    box = SearchBox.symmetric(v, rng.randint(0, 2))
    p = rng.randint(0, pb.rank - 1)

    def bundle(w, *coords):
        return SplitBundle(w, tuple(DivisorClass(w, c) for c in coords))

    calls = [
        ("cohomology", lambda w: cohomology(v, bundle(w, c1, c2))),
        ("cohomology", lambda w: cohomology(v, DivisorClass(w, c1))),
        ("euler_characteristic", lambda w: euler_characteristic(v, bundle(w, c1, c2))),
        ("is_very_ample", lambda w: is_very_ample(v, DivisorClass(w, c1))),
        ("is_ulrich", lambda w: is_ulrich(v, f, DivisorClass(w, a_coords))),
        ("is_ulrich", lambda w: is_ulrich(v, bundle(w, c1), a)),
        ("ulrich_line_bundles", lambda w: ulrich_line_bundles(
            v, DivisorClass(w, a_coords), box)),
        ("serre_partner", lambda w: serre_partner(v, bundle(w, c1, c2), a)),
        ("serre_partner", lambda w: serre_partner(v, f, DivisorClass(w, a_coords))),
        ("pullback_ulrich_criterion", lambda w: pullback_ulrich_criterion(
            v, e, f, DivisorClass(w, a_coords))),
        ("pullback_ulrich_criterion", lambda w: pullback_ulrich_criterion(
            v, bundle(w, *(s.coords for s in e.summands)), f, a)),
        ("pullback_ulrich_criterion", lambda w: pullback_ulrich_criterion(
            v, e, bundle(w, c1), a)),
        ("direct_ulrich_check", lambda w: direct_ulrich_check(
            pb, f, DivisorClass(w, a_coords))),
        ("direct_ulrich_check", lambda w: direct_ulrich_check(pb, bundle(w, c1), a)),
        ("pullback_ulrich_line_search", lambda w: pullback_ulrich_line_search(
            pb, DivisorClass(w, a_coords), box)),
        ("semiorthogonality_probe", lambda w: semiorthogonality_probe(
            pb, DivisorClass(w, c1), DivisorClass(v, c2), p)),
        ("semiorthogonality_probe", lambda w: semiorthogonality_probe(
            pb, DivisorClass(v, c1), DivisorClass(w, c2), p)),
        ("semiorthogonality_probe", lambda w: semiorthogonality_probe(
            pb, DivisorClass(w, c1), DivisorClass(w, c2), p)),
    ]
    root = v
    while isinstance(root, ProjBundle):
        root = root.base
    if isinstance(root, ProjSpace):  # the oracle's fans: P^n and towers over it
        calls.append(("toric_cech_oracle", lambda w: toric_cech_oracle(
            v, DivisorClass(w, c1))))
    return calls


def foreign_input_sweep(seeds) -> int:
    """Every public entry point on a variety v refuses, with
    UnsupportedVariety, a divisor or bundle of another variety w of the
    same Picard rank in the place of any one of its inputs, for every such
    ordered pair from FOREIGN_VARIETIES.  As a control, the same call with
    that input's coordinates on v raises no UnsupportedVariety, so the
    refusal is the foreign variety's (another EngineError, such as
    NotVeryAmple for seeded coordinates, may stand there).  Returns the
    number of refusals checked."""
    varieties = {parse_variety(name): a for name, a in FOREIGN_VARIETIES.items()}
    refused = 0
    for seed in seeds:
        rng = random.Random(f"foreign/{seed}")
        for v, a_coords in varieties.items():
            calls = _foreign_calls(rng, v, a_coords)
            for name, call in calls:
                try:
                    call(v)
                except UnsupportedVariety as err:
                    raise AssertionError(f"{name} on {v.name} refused its own input: {err}")
                except EngineError:
                    pass
            for w in varieties:
                if w == v or w.picard_rank != v.picard_rank:
                    continue
                for name, call in calls:
                    try:
                        result = call(w)
                    except UnsupportedVariety:
                        refused += 1
                    else:
                        raise AssertionError(
                            f"seed {seed}: {name} on {v.name} took an input on "
                            f"{w.name} and gave {result}")
    return refused
