"""Cohomology engine: line-bundle tables, pushforward branches, chi."""

import importlib
import itertools
import random
from collections import Counter
from functools import partial

import pytest

from ulrichbundles import (
    CohomologyTable,
    DivisorClass,
    GenericCurve,
    GenericModeUnsupported,
    ProjBundle,
    ProjSpace,
    SplitBundle,
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
    _p1_twist_sums,
    pushforward_table,
    pushforward_terms,
)

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


class TestSuffixSumTablesOverP1:
    """Tables on P(E) over P^1 from suffix sums against the pushforward route."""

    @pytest.mark.parametrize("name", _P1_BUNDLES)
    def test_equal_to_pushforward_route(self, name):
        # a, k in [-25, 25] covers k >= 0, the dead band and k <= -rank
        v = parse_variety(name)
        base_table = partial(_line_table, v.base)
        for a, k in itertools.product(range(-25, 26), repeat=2):
            table = _line_table(v, (a, k))
            expected = pushforward_table(v.dim, v.summand_coords, (a,), k, base_table)
            assert table == expected, (name, a, k)
            assert table.chi == euler_characteristic(v, DivisorClass(v, (a, k)))

    def test_one_expansion_per_h_degree(self, monkeypatch):
        coh_mod = importlib.import_module("ulrichbundles.cohomology")
        calls = []

        def counted(*args):
            calls.append(args)
            return pushforward_terms(*args)

        _p1_twist_sums.cache_clear()
        monkeypatch.setattr(coh_mod, "pushforward_terms", counted)
        assert run(["enum-zero", "F3", "--box", "12"]) == 0
        assert 0 < len(calls) <= 25  # one per H-degree, not one per box point


class TestTableInvariants:
    def test_chi_is_alternating_sum(self):
        for a in range(-5, 6):
            for b in range(-5, 6):
                t = coh(F2, (a, b))
                assert t.chi == sum((-1) ** i * x for i, x in enumerate(t.h))
                assert all(x >= 0 for x in t.h)

    def test_negative_entries_rejected(self):
        with pytest.raises(AssertionError):
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
