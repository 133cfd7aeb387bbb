"""Cohomology engine: line-bundle tables, pushforward branches, chi."""

import importlib
import itertools
import random
from collections import Counter
from functools import partial
from math import comb

import pytest

from ulrichbundles import (
    CohomologyTable,
    DivisorClass,
    GenericCurve,
    GenericModeUnsupported,
    InternalInconsistency,
    ProjBundle,
    ProjSpace,
    SplitBundle,
    UnsupportedVariety,
    canonical_class,
    cohomology,
    euler_characteristic,
    hirzebruch,
    hom_complex_dims,
    line_bundle,
    parse_bundle,
    parse_variety,
    sym_power,
)
from ulrichbundles.cli import run
from ulrichbundles.cohomology import (
    _line_table,
    _twist_sums,
    push_down,
    pushforward_table,
    pushforward_terms,
)

from towers import rank2_tower

P1 = ProjSpace(1)
P2 = ProjSpace(2)
P3 = ProjSpace(3)
F0 = hirzebruch(0)
F1 = hirzebruch(1)
F2 = hirzebruch(2)


def coh(v, coords):
    return cohomology(v, DivisorClass(v, coords))


class TestLineTables:
    def test_p2_serre_dual_of_trivial(self):
        assert coh(P2, (-3,)).h == (0, 0, 1)

    def test_f2_dead_band(self):
        assert coh(F2, (1, -1)).h == (0, 0, 0)

    def test_f1_section(self):
        assert coh(F1, (0, 1)).h == (3, 0, 0)

    def test_f2_lower_branch(self):
        assert coh(F2, (1, -2)).h == (0, 0, 0)

    def test_generic_curve_degree_g_minus_one(self):
        t = coh(GenericCurve(3), (2,))
        assert t.h == (0, 0) and t.generic

    def test_pb_canonical(self):
        v = parse_variety("PB(P2;[1],[0])")
        assert coh(v, (-2, -2)).h == (0, 0, 0, 1)

    def test_curve_exact_ranges_only_model_generic(self):
        t = coh(GenericCurve(2), (-1,))
        assert t.h == (0, 2) and t.generic


class TestHomComplex:
    def test_p2_pair(self):
        e1 = parse_bundle("{[1],[0]}", P2)
        assert hom_complex_dims(P2, e1, line_bundle(P2, (1,))).h == (4, 0, 0)

    def test_p2_serre_dual(self):
        t = hom_complex_dims(P2, line_bundle(P2, (0,)), line_bundle(P2, (-4,)))
        assert t.h == (0, 0, 3)

    def test_p1_pair(self):
        e1 = parse_bundle("{[0],[2]}", P1)
        t = hom_complex_dims(P1, e1, line_bundle(P1, (-1,)))
        assert t.h == (0, 2)


class TestEulerCharacteristic:
    def test_f2(self):
        assert euler_characteristic(F2, DivisorClass(F2, (1, 1))) == 6

    def test_p3(self):
        assert euler_characteristic(P3, DivisorClass(P3, (-4,))) == -1

    def test_f1_trivial(self):
        assert euler_characteristic(F1, DivisorClass(F1, (0, 0))) == 1

    def test_generic_curve_rejected(self):
        c = GenericCurve(2)
        with pytest.raises(GenericModeUnsupported):
            euler_characteristic(c, DivisorClass(c, (3,)))

    @pytest.mark.parametrize("compute", [cohomology, euler_characteristic])
    def test_bundle_on_another_variety_rejected(self, compute):
        for bundle in (line_bundle(P3, (1,)), DivisorClass(P3, (1,)),
                       line_bundle(F1, (0, 1))):
            with pytest.raises(UnsupportedVariety):
                compute(P2, bundle)

    def test_split_bundle_sums_its_summands(self):
        # repeated summands are merged into one walk term with multiplicity 2
        v = parse_variety("PB(F1;[0,0],[1,1])")
        e = parse_bundle("{[1,0,1],[-2,1,0],[1,0,1],[0,0,-3]}", v)
        expected = sum(euler_characteristic(v, s) for s in e.summands)
        assert euler_characteristic(v, e) == cohomology(v, e).chi == expected

    @pytest.mark.parametrize("rank", [2, 3, 4, 5])
    def test_closed_polynomial_over_p1(self, rank, monkeypatch):
        # k >= 0, the dead band -rank < k < 0 and k <= -rank; the tables are
        # taken first, then the expansion is disabled, so chi must come from
        # the closed polynomial alone
        import importlib

        coh_mod = importlib.import_module("ulrichbundles.cohomology")
        rng = random.Random(rank)
        cases = []
        for _ in range(6):
            e = SplitBundle(P1, tuple(DivisorClass(P1, (rng.randint(-3, 4),))
                                      for _ in range(rank)))
            v = ProjBundle(P1, e)
            for a in range(-5, 6):
                for k in range(-rank - 5, 7):
                    d = DivisorClass(v, (a, k))
                    cases.append((v, d, cohomology(v, d).chi))

        def no_expansion(*args):
            raise AssertionError("chi over P^1 used the pushforward expansion")

        monkeypatch.setattr(coh_mod, "pushforward_terms", no_expansion)
        for v, d, chi in cases:
            assert euler_characteristic(v, d) == chi, (v.name, d.coords)

    @pytest.mark.parametrize("r", range(5))
    def test_hirzebruch_polynomial(self, r):
        fr = hirzebruch(r)
        for a, b in itertools.product(range(-6, 7), repeat=2):
            expected = (a + 1) * (b + 1) + r * b * (b + 1) // 2
            assert euler_characteristic(fr, DivisorClass(fr, (a, b))) == expected

    def test_matches_alternating_sum_on_pb(self):
        v = parse_variety("PB(F2;[1,0],[0,1])")
        for coords in [(0, 0, 0), (1, 2, 3), (-2, 1, -4), (3, -3, 2)]:
            d = DivisorClass(v, coords)
            assert euler_characteristic(v, d) == cohomology(v, d).chi


# E takes the first `rank` summands of the pool for its Picard rank
_SUMMAND_POOL = {1: [(0,), (1,), (3,), (-2,), (2,)],
                 2: [(0, 0), (1, 0), (0, 1), (2, -1), (-1, 3)]}
_TWIST = {1: (-2,), 2: (1, -3)}


class TestPushforwardTerms:
    """Counted projection-formula terms against the enumerated Sym^p."""

    @pytest.mark.parametrize("base", [P1, P2, P3, F0, F2, GenericCurve(2)],
                             ids=lambda v: v.name)
    @pytest.mark.parametrize("rank", [2, 3, 4, 5])
    def test_terms_match_sym_power(self, base, rank):
        pool = _SUMMAND_POOL[base.picard_rank][:rank]
        e = SplitBundle(base, tuple(DivisorClass(base, s) for s in pool))
        b = DivisorClass(base, _TWIST[base.picard_rank])
        v = ProjBundle(base, e)
        for k in range(-rank - 6, 9):
            shift, terms = pushforward_terms(tuple(pool), b.coords, k)
            if k >= 0:
                assert shift == 0
                expected = Counter((b + s).coords for s in sym_power(e, k).summands)
            elif k <= -rank:
                assert shift == rank - 1
                expected = Counter((b - e.c1 - s).coords
                                   for s in sym_power(e, -k - rank).summands)
            else:
                expected = Counter()
            assert terms == dict(expected), (base.name, rank, k)
            if not isinstance(base, GenericCurve):
                d = DivisorClass(v, b.coords + (k,))
                assert euler_characteristic(v, d) == cohomology(v, d).chi


# split bundles over P^1 of ranks 2-5, with negative and repeated summands
_P1_BUNDLES = ["F0", "F1", "F2", "F3", "F4",
               "PB(P1;[0],[-3])", "PB(P1;[2],[2])", "PB(P1;[0],[2],[3])",
               "PB(P1;[2],[2],[-1])", "PB(P1;[-2],[0],[0],[5])",
               "PB(P1;[1],[1],[1],[-4])", "PB(P1;[-1],[-5],[2],[0],[0])",
               "PB(P1;[3],[3],[3],[3],[3])"]
# and over P^2, P^3 and curves
_PN_CURVE_BUNDLES = ["PB(P2;[0],[1])", "PB(P2;[0],[2],[-1])", "PB(P3;[0],[0],[3])",
                     "PB(P3;[1],[-2],[2])", "PB(P2;[3],[3],[3],[3],[3])",
                     "PB(C1;[0],[2])", "PB(C2;[0],[1],[3])", "PB(C3;[-1],[0],[2],[4])"]


class TestSuffixSumTablesOverP1:
    """Tables on P(E) over P^1, P^n and curves from the closed level's power
    sums against the pushforward route, which tabulates each twist."""

    @pytest.mark.parametrize("name", _P1_BUNDLES + _PN_CURVE_BUNDLES)
    def test_equal_to_pushforward_route(self, name):
        # a, k in [-25, 25] covers k >= 0, the dead band and k <= -rank
        v = parse_variety(name)
        base_table = partial(_line_table, v.base)
        for a, k in itertools.product(range(-25, 26), repeat=2):
            table = _line_table(v, (a, k))
            expected = pushforward_table(v.dim, push_down(v, {(0, (a, k)): 1}),
                                         base_table)
            assert table == expected, (name, a, k)
            if not table.generic:  # chi refuses generic curves
                assert table.chi == euler_characteristic(v, DivisorClass(v, (a, k)))

    def test_the_walk_stops_above_p2(self, monkeypatch):
        # a table on P(E) over P^2 never tabulates a line bundle on P^2
        coh_mod = importlib.import_module("ulrichbundles.cohomology")
        real = coh_mod._line_table

        def no_base(v, coords):
            assert isinstance(v, ProjBundle), v.name
            return real(v, coords)

        monkeypatch.setattr(coh_mod, "_line_table", no_base)
        v = parse_variety("PB(P2;[0],[1],[3])")
        sym = itertools.combinations_with_replacement((0, 1, 3), 20)
        assert cohomology(v, DivisorClass(v, (1, 20))).h[0] == sum(
            comb(1 + sum(e) + 2, 2) for e in sym)

    def test_one_expansion_per_h_degree(self, monkeypatch):
        coh_mod = importlib.import_module("ulrichbundles.cohomology")
        calls = []

        def counted(*args):
            calls.append(args)
            return pushforward_terms(*args)

        _twist_sums.cache_clear()
        monkeypatch.setattr(coh_mod, "pushforward_terms", counted)
        assert run(["enum-zero", "F3", "--box", "12"]) == 0
        assert 0 < len(calls) <= 25  # one per H-degree, not one per box point


def reference_table(v, coords):
    """The recursive tower expansion: one base table per pushforward term,
    each expanded again, no equal twists merged."""
    if not isinstance(v, ProjBundle) or v.base == P1:
        return _line_table(v, coords)
    shift, terms = pushforward_terms(v.summand_coords, coords[:-1], coords[-1])
    h = [0] * (v.dim + 1)
    generic = False
    for twist, mult in terms.items():
        part = reference_table(v.base, twist)
        generic = generic or part.generic
        for i, x in enumerate(part.h):
            h[i + shift] += mult * x
    return CohomologyTable.make(h, generic)


def reference_chi(v, coords):
    """chi by the same recursion, the closed polynomials at its leaves."""
    if not isinstance(v, ProjBundle) or v.base == P1:
        return euler_characteristic(v, DivisorClass(v, coords))
    shift, terms = pushforward_terms(v.summand_coords, coords[:-1], coords[-1])
    return (-1) ** shift * sum(mult * reference_chi(v.base, e)
                               for e, mult in terms.items())


def engine_chi(v, coords):
    return euler_characteristic(v, DivisorClass(v, coords))


def chi_outcome(chi, v, coords):
    try:
        return chi(v, coords)
    except GenericModeUnsupported:
        return "generic-unsupported"


# the last three have a first summand D_0 != 0, which enters every class
_TOWERS = ["PB(P2;[0],[1],[-2])", "PB(F1;[0,0],[1,1])", "PB(F2;[0,0],[1,0],[0,1])",
           "PB(PB(F1;[0,0],[1,0]);[0,0,0],[0,1,1])", "PB(PB(P2;[1],[0]);[0,0],[1,1])",
           "PB(C2;[0],[3])", "PB(PB(C1;[0],[1]);[0,0],[1,0])",
           rank2_tower(4), rank2_tower(6), "PB(P2;[2],[-1])", "PB(F3;[1,-1],[0,2])",
           "PB(PB(P1;[1],[-1]);[2,0],[0,1],[1,-1])"]


class TestMergedTowerWalk:
    """The merged level-by-level walk against the recursive expansion."""

    def test_tables_and_chi_match_the_recursion(self):
        rng = random.Random(7)
        generic = 0
        for text in _TOWERS:
            v = parse_variety(text)
            for _ in range(45):
                coords = tuple(rng.randint(-3, 3) for _ in range(v.picard_rank))
                table = cohomology(v, DivisorClass(v, coords))
                expected = reference_table(v, coords)
                assert (table.h, table.generic) == (expected.h, expected.generic), (
                    text, coords)
                generic += table.generic
                assert (chi_outcome(engine_chi, v, coords)
                        == chi_outcome(reference_chi, v, coords)), (text, coords)
        assert generic > 0  # the towers over curves reach the generic flag

    def test_all_ones_class_on_the_bott_tower_is_a_catalan_number(self):
        # h^0 of the all-ones class on rank2_tower(d) is Catalan(d + 2)
        for d in range(1, 31):
            v = parse_variety(rank2_tower(d))
            table = cohomology(v, DivisorClass(v, (1,) * (d + 1)))
            assert table.h == (comb(2 * d + 4, d + 2) // (d + 3),) + (0,) * (d + 1), d


class TestTableInvariants:
    def test_chi_is_alternating_sum(self):
        for a in range(-5, 6):
            for b in range(-5, 6):
                t = coh(F2, (a, b))
                assert t.chi == sum((-1) ** i * x for i, x in enumerate(t.h))
                assert all(x >= 0 for x in t.h)

    def test_negative_entries_rejected(self):
        with pytest.raises(InternalInconsistency):
            CohomologyTable.make((1, -1))


class TestSerreDuality:
    @pytest.mark.parametrize("v", [P1, P2, P3, F0, F1, F2, hirzebruch(3)])
    def test_line_bundles_in_box(self, v):
        k = canonical_class(v)
        n = v.dim
        for coords in _box(v.picard_rank, 4):
            d = DivisorClass(v, coords)
            left = coh(v, d.coords).h
            right = coh(v, (k - d).coords).h
            assert left == tuple(reversed(right)), (v.name, coords)

    def test_threefold(self):
        v = parse_variety("PB(P2;[1],[0])")
        k = canonical_class(v)
        for coords in [(0, 0), (1, -2), (-3, 1), (2, 2), (-1, -4)]:
            d = DivisorClass(v, coords)
            left = coh(v, d.coords).h
            right = coh(v, (k - d).coords).h
            assert left == tuple(reversed(right))


def _box(rank, radius):
    return itertools.product(range(-radius, radius + 1), repeat=rank)


class TestProjectivizationTwist:
    """cohomology(P(E), B + kH) = cohomology(P(E x L), B - kL + kH)."""

    def test_seeded_samples(self):
        rng = random.Random(20240601)
        bases = [P1, P2, F1, F2, F0]
        for _ in range(60):
            base = rng.choice(bases)
            rank = rng.randint(2, 3)
            summands = [tuple(rng.randint(-2, 2) for _ in range(base.picard_rank))
                        for _ in range(rank)]
            ell = tuple(rng.randint(-2, 2) for _ in range(base.picard_rank))
            b = tuple(rng.randint(-3, 3) for _ in range(base.picard_rank))
            k = rng.randint(-4, 4)
            e = SplitBundle(base, tuple(DivisorClass(base, s) for s in summands))
            e_twisted = e.twist(DivisorClass(base, ell))
            v1 = ProjBundle(base, e)
            v2 = ProjBundle(base, e_twisted)
            left = cohomology(v1, DivisorClass(v1, b + (k,)))
            b_adj = tuple(x - k * l for x, l in zip(b, ell))
            right = cohomology(v2, DivisorClass(v2, b_adj + (k,)))
            assert left.h == right.h


class TestSemiorthogonalityConsequence:
    def test_dead_band_vanishes_for_any_base_pair(self):
        v = parse_variety("PB(P2;[1],[0])")
        for g in range(-5, 6):
            for p in range(1, v.summands.rank):
                t = cohomology(v, DivisorClass(v, (g, -p)))
                assert t.is_zero()
