"""Cohomology engine: line-bundle tables, pushforward branches, chi."""

import contextlib
import importlib
import io
import itertools
import json
import random
import time
from collections import Counter
from functools import partial
from math import comb, factorial, prod

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
    line_bundle,
    parse_bundle,
    parse_variety,
    sym_power,
)
from ulrichbundles.cli import run
from ulrichbundles.cohomology import (
    _binomial,
    _closed_level_table,
    _proj_space_line,
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

    @pytest.mark.parametrize("g", range(0, 6))
    def test_generic_curve_degree_g_minus_one(self, g):
        # a general line bundle of degree g - 1 has no cohomology, so its
        # table is generic; on C0 = P^1 it is O(-1), where no flag is needed
        t = coh(GenericCurve(g), (g - 1,))
        assert t.h == (0, 0) and (t.generic or g == 0)

    def test_pb_canonical(self):
        v = parse_variety("PB(P2;[1],[0])")
        assert coh(v, (-2, -2)).h == (0, 0, 0, 1)

    def test_curve_exact_ranges_only_model_generic(self):
        t = coh(GenericCurve(2), (-1,))
        assert t.h == (0, 2) and t.generic


class TestHomComplex:
    """Hom^*(E1, L) for a split E1 and a line bundle L is the cohomology of
    the split bundle E1^* x L, whose summands are L - a for a in E1."""

    @staticmethod
    def hom(v, e1, line):
        return cohomology(v, SplitBundle(v, tuple(line - a for a in e1.summands)))

    def test_p2_pair(self):
        e1 = parse_bundle("{[1],[0]}", P2)
        assert self.hom(P2, e1, DivisorClass(P2, (1,))).h == (4, 0, 0)

    def test_p2_serre_dual(self):
        t = self.hom(P2, line_bundle(P2, (0,)), DivisorClass(P2, (-4,)))
        assert t.h == (0, 0, 3)

    def test_p1_pair(self):
        e1 = parse_bundle("{[0],[2]}", P1)
        t = self.hom(P1, e1, DivisorClass(P1, (-1,)))
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

    def test_binomial_is_the_falling_factorial_polynomial(self):
        # the falling-factorial product that math.comb replaced, as reference
        for x, j in itertools.product(range(-30, 31), range(13)):
            assert _binomial(x, j) == prod(range(x - j + 1, x + 1)) // factorial(j), (x, j)

    def test_huge_projective_space_is_quick(self):
        # chi is C(100003, 100000): the falling-factorial product took
        # seconds over its 100000 factors and 100000!
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert run(["chi", "P100000", "[3]", "--json"]) == 0
        assert time.perf_counter() - start < 1.0
        assert json.loads(out.getvalue()) == {"chi": comb(100003, 3)}


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
        base_table = partial(leaf_table, v.base)
        for a, k in itertools.product(range(-25, 26), repeat=2):
            table = _closed_level_table(v, {(0, (a, k)): 1}, v.dim)
            expected = pushforward_table(v.dim, push_down(v, {(0, (a, k)): 1}),
                                         base_table)
            assert table == expected, (name, a, k)
            if not table.generic:  # chi refuses generic curves
                assert table.chi == euler_characteristic(v, DivisorClass(v, (a, k)))

    def test_the_walk_stops_above_p2(self, monkeypatch):
        # a table on P(E) over P^2 never tabulates a line bundle on P^2
        coh_mod = importlib.import_module("ulrichbundles.cohomology")
        real = coh_mod._closed_level_table
        levels = []

        def no_base(v, terms, dim):
            assert isinstance(v, ProjBundle), v.name
            levels.append(v)
            return real(v, terms, dim)

        monkeypatch.setattr(coh_mod, "_closed_level_table", no_base)
        v = parse_variety("PB(P2;[0],[1],[3])")
        sym = itertools.combinations_with_replacement((0, 1, 3), 20)
        assert cohomology(v, DivisorClass(v, (1, 20))).h[0] == sum(
            comb(1 + sum(e) + 2, 2) for e in sym)
        assert levels == [v]

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


def leaf_table(v, coords):
    """O(d) on P^n (Bott's formula) or on a curve (the Brill-Noether-general
    table, flagged generic), apart from the engine's one pass."""
    (d,) = coords
    if isinstance(v, ProjSpace):
        return _proj_space_line(v.n, d)
    chi = d - v.genus + 1
    return CohomologyTable.make((max(0, chi), max(0, chi) - chi), generic=True)


def reference_table(v, coords):
    """The recursive tower expansion down to P^n or a curve: one base table
    per pushforward term, each expanded again, no equal twists merged."""
    if not isinstance(v, ProjBundle):
        return leaf_table(v, coords)
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

    def test_seeded_sweep(self):
        # CI runs seeds 1-100
        assert serre_sweep(range(1, 4)) == 3 * 20 * 19

    def test_threefold(self):
        v = parse_variety("PB(P2;[1],[0])")
        k = canonical_class(v)
        for coords in [(0, 0), (1, -2), (-3, 1), (2, 2), (-1, -4)]:
            d = DivisorClass(v, coords)
            left = coh(v, d.coords).h
            right = coh(v, (k - d).coords).h
            assert left == tuple(reversed(right))


def serre_varieties(rng) -> list:
    """P^1..P^4, F_0..F_3 and C0..C3; then over a seeded P^n, F_r and
    curve each, a P(E) with seeded summands and a P(E') over that P(E);
    and a seeded Bott tower (``towers.rank2_tower``)."""
    out = ([ProjSpace(n) for n in range(1, 5)] + [hirzebruch(r) for r in range(4)]
           + [GenericCurve(g) for g in range(4)])
    for v in (ProjSpace(rng.randint(1, 3)), hirzebruch(rng.randint(0, 3)),
              GenericCurve(rng.randint(0, 3))):
        for _ in range(2):
            summands = tuple(DivisorClass(v, tuple(rng.randint(-3, 3)
                                                   for _ in range(v.picard_rank)))
                             for _ in range(rng.randint(2, 3)))
            v = ProjBundle(v, SplitBundle(v, summands))
            out.append(v)
    out.append(parse_variety(rank2_tower(rng.randint(2, 5))))
    return out


def serre_sweep(seeds) -> int:
    """Serre duality, h^i(L) = h^(dim - i)(K - L), on 20 seeded divisors
    with coordinates in [-8, 8] over each ``serre_varieties`` entry, per
    seed; on a generic curve the model's tables of degrees d and
    2g - 2 - d are mirror images too.  Returns the number of divisors
    checked.  The relation shares the engine, so it cannot see a fault
    that is symmetric under duality."""
    checked = 0
    for seed in seeds:
        rng = random.Random(f"serre/{seed}")
        for v in serre_varieties(rng):
            k = canonical_class(v)
            for _ in range(20):
                d = DivisorClass(v, tuple(rng.randint(-8, 8) for _ in range(v.picard_rank)))
                left, right = cohomology(v, d).h, cohomology(v, k - d).h
                assert left == right[::-1], (seed, v.name, d.coords, left, right)
                checked += 1
    return checked


def _seeded_bundle(rng, base, ranks):
    """P(E) over base with seeded summands in [-3, 3] drawn from a pool of
    two, so negative and repeated summands occur."""
    pool = [tuple(rng.randint(-3, 3) for _ in range(base.picard_rank)) for _ in range(2)]
    summands = tuple(DivisorClass(base, rng.choice(pool))
                     for _ in range(rng.randint(*ranks)))
    return ProjBundle(base, SplitBundle(base, summands))


def closed_level_varieties(rng) -> list:
    """P^1..P^4 and C0..C3, a seeded P(E) of rank 2-5 over each, and
    seeded depth-2 towers: P(E) of rank 2-3 over F_r, over a P(E) over
    P^2 and over a P(E) over a curve."""
    bottoms = [ProjSpace(n) for n in range(1, 5)] + [GenericCurve(g) for g in range(4)]
    towers = [_seeded_bundle(rng, base, (2, 3)) for base in (
        hirzebruch(rng.randint(0, 4)), _seeded_bundle(rng, P2, (2, 2)),
        _seeded_bundle(rng, GenericCurve(rng.randint(0, 3)), (2, 2)))]
    return bottoms + [_seeded_bundle(rng, v, (2, 5)) for v in bottoms] + towers


def _negated_at(twist_sums, k):
    """``twist_sums`` with the power sums of H-degree k negated."""
    def negated(summands, degree, n):
        shift, twists, sums = twist_sums(summands, degree, n)
        if degree == k:
            sums = [[-x for x in col] for col in sums]
        return shift, twists, sums
    return negated


def closed_level_sweep(seeds) -> int:
    """``split_table`` of seeded term dicts against the per-term sum of
    ``reference_table``, and its refusals.  Per seed and
    ``closed_level_varieties`` entry, four dicts of 1-6 terms with shifts
    0-2, multiplicities 1-3 and coordinates in [-12, 12]: the table and
    its generic flag must equal those of the sum, and so must those of
    each term alone.  Then, at the closed
    level the walk stops at, a multiplicity planted as 0 or -1 on a seeded
    term must be refused naming that term, and where that level is a
    P(E), power sums planted negated for the H-degree of a term must
    refuse the first term of that degree whose table is nonzero, naming
    its negated table (on P^n and curves no table entry can be negative).
    Asserts that each planted kind occurred, and a negation that left
    every table of its degree zero.  Returns the number of terms compared."""
    coh_mod = importlib.import_module("ulrichbundles.cohomology")
    real_sums = coh_mod._twist_sums
    compared, planted_kinds = 0, Counter()
    for seed in seeds:
        rng = random.Random(f"closed-level/{seed}")
        for v in closed_level_varieties(rng):
            dim = v.dim + 2
            for _ in range(4):
                terms = {(rng.randint(0, 2), tuple(rng.randint(-12, 12)
                                                   for _ in range(v.picard_rank))):
                         rng.randint(1, 3) for _ in range(rng.randint(1, 6))}
                h, generic = [0] * (dim + 1), False
                for (shift, coords), mult in terms.items():
                    part = reference_table(v, coords)
                    term = [0] * (dim + 1)
                    for i, x in enumerate(part.h, shift):
                        h[i] += mult * x
                        term[i] = mult * x
                    alone = coh_mod.split_table(v, {(shift, coords): mult}, dim)
                    assert (alone.h, alone.generic) == (tuple(term), part.generic), (
                        seed, v.name, shift, coords)
                    generic = generic or part.generic
                table = coh_mod.split_table(v, terms, dim)
                assert (table.h, table.generic) == (tuple(h), generic), (seed, v.name, terms)
                compared += len(terms)

                level, pushed = coh_mod._tower_terms(v, terms)
                if not pushed:
                    continue
                keys = list(pushed)
                shift, coords = key = rng.choice(keys)
                planted = dict(pushed)
                planted[key] = mult = rng.choice([0, -1])
                with pytest.raises(InternalInconsistency) as refused:
                    coh_mod.split_table(level, planted, dim)
                assert str(refused.value) == (
                    f"non-positive multiplicity {mult} of O{coords} in degree {shift}")
                planted_kinds[mult] += 1

                if not isinstance(level, ProjBundle):
                    continue
                k = coords[-1]
                parts = [reference_table(level, c).h for _, c in keys if c[-1] == k]
                negated = next((tuple(-x for x in part) for part in parts if any(part)), None)
                unplanted = coh_mod.split_table(level, pushed, dim)
                planted_kinds["negated", negated is None] += 1
                coh_mod._twist_sums = _negated_at(real_sums, k)
                try:
                    if negated is None:  # each part of degree k is zero
                        assert coh_mod.split_table(level, pushed, dim) == unplanted
                    else:
                        with pytest.raises(InternalInconsistency) as refused:
                            coh_mod.split_table(level, pushed, dim)
                        assert str(refused.value) == (
                            f"negative cohomology dimension in {negated}")
                finally:
                    coh_mod._twist_sums = real_sums
    assert all(planted_kinds[kind] for kind in (0, -1, ("negated", False),
                                                ("negated", True))), planted_kinds
    return compared


class TestClosedLevelSweep:
    def test_seeds_1_to_3(self):
        assert closed_level_sweep(range(1, 4)) >= 800


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
