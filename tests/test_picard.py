"""Picard-lattice arithmetic, split-bundle algebra, ampleness, grammar."""

import itertools
import random
import time
from fractions import Fraction
from math import comb

import pytest

from ulrichbundles import (
    AmpleVerdict,
    DivisorClass,
    GenericCurve,
    NotAmple,
    ParseError,
    ProjBundle,
    ProjSpace,
    SplitBundle,
    UnsupportedPolarisation,
    UnsupportedVariety,
    canonical_class,
    cohomology,
    hirzebruch,
    is_ample,
    is_very_ample,
    line_bundle,
    parse_bundle,
    parse_divisor,
    parse_variety,
    render_bundle,
    render_divisor,
    render_variety,
    sym_power,
    very_ample_threshold,
)
from ulrichbundles import picard
from ulrichbundles.cli import run

from towers import rank2_tower

P1 = ProjSpace(1)
P2 = ProjSpace(2)
F0 = hirzebruch(0)
F2 = hirzebruch(2)
F3 = hirzebruch(3)


def pb(text):
    return parse_variety(text)


class TestCanonicalClass:
    def test_proj_plane(self):
        assert canonical_class(P2).coords == (-3,)

    def test_hirzebruch(self):
        assert canonical_class(F2).coords == (0, -2)

    def test_proj_bundle(self):
        v = pb("PB(P2;[1],[0])")
        assert canonical_class(v).coords == (-2, -2)

    def test_quadric_symmetry(self):
        assert canonical_class(F0).coords == (-2, -2)

    def test_curve_degree(self):
        assert canonical_class(GenericCurve(3)).coords == (4,)


class TestSymPower:
    def test_square_on_p1(self):
        e = parse_bundle("{[0],[2]}", P1)
        assert sym_power(e, 2).multiset() == ((0,), (2,), (4,))

    def test_sym_zero_is_trivial(self):
        e = parse_bundle("{[1],[0],[0]}", P2)
        assert sym_power(e, 0).multiset() == ((0,),)

    def test_square_on_p2(self):
        e = parse_bundle("{[1],[0],[0]}", P2)
        assert sym_power(e, 2).multiset() == (
            (0,), (0,), (0,), (1,), (1,), (2,))

    def test_sym_one_is_identity(self):
        e = parse_bundle("{[1,-2],[0,3]}", F2)
        assert sym_power(e, 1).multiset() == e.multiset()

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", range(7))
    def test_size_and_c1_identity(self, rank, k):
        coords = [(i - 1,) for i in range(rank)]
        e = SplitBundle(P2, tuple(DivisorClass(P2, c) for c in coords))
        s = sym_power(e, k)
        assert s.rank == comb(rank + k - 1, k)
        expected = Fraction(comb(rank + k - 1, k) * k, rank)
        assert expected.denominator == 1
        assert s.c1.coords[0] == expected * e.c1.coords[0]


class TestBundleAlgebra:
    def test_double_dual(self):
        e = parse_bundle("{[1,-2],[0,3],[2,2]}", F2)
        assert e.dual().dual() == e


class TestVeryAmple:
    def test_hirzebruch_positive(self):
        assert bool(is_very_ample(F3, DivisorClass(F3, (2, 1))))
        assert not is_very_ample(F3, DivisorClass(F3, (0, 1)))

    def test_blowup_h_not_ample(self):
        v = pb("PB(P2;[1],[0])")
        assert not is_very_ample(v, DivisorClass(v, (0, 1)))

    def test_blowup_h_plus_hyperplane(self):
        v = pb("PB(P2;[1],[0])")
        assert bool(is_very_ample(v, DivisorClass(v, (1, 1))))

    def test_pb_reduction_matches_summand_conjunction(self):
        v = pb("PB(F2;[0,0],[-1,0])")
        for a in range(0, 4):
            for b in range(0, 4):
                d = DivisorClass(v, (a, b, 1))
                expected = all(
                    bool(is_very_ample(F2, s + DivisorClass(F2, (a, b))))
                    for s in v.summands.summands)
                assert bool(is_very_ample(v, d)) == expected

    AMPLE_RULES = {
        # b*h + k*H on the blowup of P^3 at a point: k >= 1, b + k >= 1, b >= 1
        "PB(P2;[1],[0])": lambda b, k: k >= 1 and b >= 1,
        "PB(P2;[2],[-1])": lambda b, k: k >= 1 and b - k >= 1,
        # a*f + b*C+ on F_r is ample iff a >= 1 and b >= 1
        **{f"F{r}": lambda a, b: a >= 1 and b >= 1 for r in range(5)},
    }

    @pytest.mark.parametrize("text", list(AMPLE_RULES))
    def test_general_h_coefficient_truth_table(self, text):
        v = pb(text)
        for coords in itertools.product(range(-4, 5), repeat=2):
            d = DivisorClass(v, coords)
            expected = self.AMPLE_RULES[text](*coords)
            assert is_ample(v, d) == expected, (text, coords)
            verdict = is_very_ample(v, d)
            assert bool(verdict) == expected and not verdict.sufficient_only, (
                text, coords)

    @pytest.mark.parametrize("text, divisor", [
        ("PB(C2;[0],[1])", "[5,2]"),
        ("PB(C2;[0],[1])", "[5,0]"),
        ("PB(PB(C2;[0],[1]);[0,0],[1,0])", "[5,1,2]"),
        # k = 1 on top, but B + k*s_i has H-coefficient 2 on the inner P(E)
        ("PB(PB(C2;[0],[1]);[0,1],[1,1])", "[5,1,1]"),
    ])
    def test_curve_base_needs_h_coefficient_one(self, text, divisor):
        v = pb(text)
        with pytest.raises(UnsupportedPolarisation):
            is_very_ample(v, parse_divisor(divisor, v))
        with pytest.raises(UnsupportedPolarisation):
            is_ample(v, parse_divisor(divisor, v))

    def test_curve_sufficient_flag(self):
        c = GenericCurve(2)
        verdict = is_very_ample(c, DivisorClass(c, (5,)))
        assert bool(verdict) and verdict.sufficient_only
        assert not is_very_ample(c, DivisorClass(c, (4,)))


def reference_is_ample(v, d):
    """The recursive definition the level-wise walk replaced: one call per
    summand at every level, so its cost is the product of the ranks."""
    if isinstance(v, (ProjSpace, GenericCurve)):
        return d.coords[0] >= 1
    k, twists = reference_twists(v, d)
    return k >= 1 and all(reference_is_ample(v.base, t) for t in twists)


def reference_is_very_ample(v, d):
    if isinstance(v, ProjSpace):
        return AmpleVerdict(d.coords[0] >= 1)
    if isinstance(v, GenericCurve):
        return AmpleVerdict(d.coords[0] >= 2 * v.genus + 1, sufficient_only=True)
    k, twists = reference_twists(v, d)
    verdicts = [reference_is_very_ample(v.base, t) for t in twists]
    return AmpleVerdict(k >= 1 and all(verdicts),
                        sufficient_only=any(x.sufficient_only for x in verdicts))


def reference_twists(v, d):
    k, root = d.coords[-1], v
    while isinstance(root, ProjBundle):
        root = root.base
    if k != 1 and isinstance(root, GenericCurve):
        raise UnsupportedPolarisation(f"H-coefficient {k}")
    base_part = DivisorClass(v.base, d.coords[:-1])
    return k, [base_part + k * s for s in v.summands.summands]


def outcome(test, v, d):
    try:
        verdict = test(v, d)
    except UnsupportedPolarisation:
        return "unsupported"
    return bool(verdict), getattr(verdict, "sufficient_only", None)


class TestTowerWalk:
    VARIETIES = ["P2", "C0", "C2", "F0", "F1", "F3", "PB(P1;[0],[2],[3])",
                 "PB(P2;[0],[1],[-2])", "PB(F1;[0,0],[1,1])", "PB(F2;[0,0],[1,0],[0,1])",
                 "PB(PB(F1;[0,0],[1,0]);[0,0,0],[0,1,1])", rank2_tower(4),
                 "PB(C2;[0],[3])", "PB(PB(C1;[0],[1]);[0,0],[1,0])",
                 "PB(PB(C1;[0],[1]);[0,0],[0,1])", "PB(PB(C1;[0],[1]);[0,1],[0,0])"]

    def test_matches_the_recursive_definition(self):
        rng = random.Random(40)
        for text in self.VARIETIES:
            v = pb(text)
            for _ in range(150):
                d = DivisorClass(v, [rng.randint(-3, 3) for _ in range(v.picard_rank)])
                very = outcome(reference_is_very_ample, v, d)
                assert outcome(is_very_ample, v, d) == very, (text, d.coords)
                # is_ample refuses exactly what is_very_ample refuses
                expected = very if very == "unsupported" else outcome(
                    reference_is_ample, v, d)
                assert outcome(is_ample, v, d) == expected, (text, d.coords)

    def test_refusal_does_not_depend_on_summand_order(self):
        # the recursion stopped at the first non-ample twist, so a
        # twist with H-coefficient 2 behind it went unseen for one order
        # of the summands of E and was refused for the other
        first, second = (pb("PB(PB(C1;[0],[1]);[0,0],[0,1])"),
                         pb("PB(PB(C1;[0],[1]);[0,1],[0,0])"))
        d1, d2 = DivisorClass(first, (0, 1, 1)), DivisorClass(second, (0, 1, 1))
        assert reference_is_ample(first, d1) is False
        with pytest.raises(UnsupportedPolarisation):
            reference_is_ample(second, d2)
        for v, d in ((first, d1), (second, d2)):
            with pytest.raises(UnsupportedPolarisation):
                is_ample(v, d)

    def test_deep_tower_in_bounded_time(self, capsys):
        start = time.perf_counter()
        code = run(["ample", rank2_tower(40), "[" + ",".join(["1"] * 41) + "]"])
        assert time.perf_counter() - start < 1.0
        assert code == 0 and capsys.readouterr().out == "very ample: True\n"


class TestThreshold:
    def test_blowup(self):
        v = pb("PB(P2;[1],[0])")
        assert very_ample_threshold(v, DivisorClass(P2, (1,))) == 1

    def test_scroll(self):
        v = pb("PB(P1;[0],[3])")
        assert very_ample_threshold(v, DivisorClass(P1, (1,))) == 1

    def test_over_hirzebruch(self):
        v = pb("PB(F2;[0,0],[-1,0])")
        assert very_ample_threshold(v, DivisorClass(F2, (1, 1))) == 2

    def test_minimality(self):
        v = pb("PB(F2;[0,0],[-3,0])")
        t = very_ample_threshold(v, DivisorClass(F2, (1, 1)))
        assert t >= 2
        above = DivisorClass(v, (t, t, 1))
        below = DivisorClass(v, (t - 1, t - 1, 1))
        assert bool(is_very_ample(v, above)) and not is_very_ample(v, below)

    def test_rejects_non_ample_direction(self):
        v = pb("PB(P2;[1],[0])")
        with pytest.raises(NotAmple):
            very_ample_threshold(v, DivisorClass(P2, (0,)))

    @pytest.mark.parametrize("twist", [-100000, -1100000])
    def test_far_threshold_by_bisection(self, twist):
        # the verdict is monotone in t, so doubling then bisecting finds
        # the least t without a scan and without a cap on t
        v = pb(f"PB(P1;[0],[{twist}])")
        start = time.perf_counter()
        t = very_ample_threshold(v, DivisorClass(P1, (1,)))
        assert time.perf_counter() - start < 1.0
        assert t == 1 - twist
        assert bool(is_very_ample(v, DivisorClass(v, (t, 1))))
        assert not is_very_ample(v, DivisorClass(v, (t - 1, 1)))


class TestDescriptorValidation:
    def test_negative_hirzebruch_rejected(self):
        with pytest.raises(UnsupportedVariety):
            hirzebruch(-1)

    def test_nested_bundle_accepted(self):
        inner = pb("PB(P1;[0],[1])")
        assert inner == hirzebruch(1)
        v = ProjBundle(inner, SplitBundle(inner, (DivisorClass(inner, (0, 0)),
                                                  DivisorClass(inner, (1, 0)))))
        f1_based = pb("PB(F1;[0,0],[1,0])")
        assert v == f1_based and v.dim == 3 and v.picard_rank == 3
        for coords in itertools.product(range(-3, 4), repeat=3):
            assert (cohomology(v, DivisorClass(v, coords))
                    == cohomology(f1_based, DivisorClass(f1_based, coords)))

    def test_pb_needs_rank_two(self):
        with pytest.raises(UnsupportedVariety):
            pb("PB(P2;[1])")

    def test_dimension(self):
        assert pb("PB(P2;[1],[0])").dim == 3
        assert pb("PB(P1;[0],[1],[3])").dim == 3
        assert GenericCurve(0).dim == 1


class TestGrammar:
    @pytest.mark.parametrize("text", ["P2", "F3", "P1xP1", "C4",
                                      "PB(P2;[1],[0])",
                                      "PB(F2;[0,0],[-1,0])"])
    def test_variety_round_trip(self, text):
        assert render_variety(parse_variety(text)) == text

    def test_f0_prints_as_quadric(self):
        assert render_variety(parse_variety("F0")) == "P1xP1"

    def test_hirzebruch_is_the_split_bundle_over_p1(self):
        for r in range(5):
            assert parse_variety(f"PB(P1;[0],[{r}])") == hirzebruch(r)
            assert parse_variety(f"F{r}") == hirzebruch(r)
        # same surface, other coordinates: not named F1
        assert render_variety(parse_variety("PB(P1;[1],[0])")) == "PB(P1;[1],[0])"
        assert render_variety(parse_variety("PB(P1;[0],[-1])")) == "PB(P1;[0],[-1])"

    def test_nested_bundle_grammar(self):
        nested = parse_variety("PB(PB(P1;[0],[1]);[0,0],[1,0])")
        f1_based = parse_variety("PB(F1;[0,0],[1,0])")
        assert nested == f1_based
        assert render_variety(nested) == "PB(F1;[0,0],[1,0])"
        assert parse_variety(render_variety(nested)) == nested
        for coords in itertools.product(range(-3, 4), repeat=3):
            assert (cohomology(nested, DivisorClass(nested, coords))
                    == cohomology(f1_based, DivisorClass(f1_based, coords)))
        tower = "PB(PB(PB(P1;[0],[2]);[0,0],[1,1]);[0,0,0],[0,1,2])"
        assert render_variety(parse_variety(tower)) == (
            "PB(PB(F2;[0,0],[1,1]);[0,0,0],[0,1,2])")
        assert parse_variety(tower).dim == 4

    def test_divisor_round_trip(self):
        d = parse_divisor("[3,-4]", F2)
        assert render_divisor(d) == "[3,-4]"

    def test_bundle_round_trip(self):
        e = parse_bundle("{[1,0],[-2,3]}", F2)
        assert render_bundle(e) == "{[1,0],[-2,3]}"
        assert parse_bundle(render_bundle(e), F2) == e

    def test_minus_basis_canonical(self):
        # -(r+2)f - 2C- equals (r-2)f - 2C+
        d = parse_divisor("[-4,-2]", F2, minus_basis=True)
        assert d.coords == (0, -2)
        assert d == canonical_class(F2)

    @pytest.mark.parametrize("bad", ["", "Q3", "[1,2", "PB(P2)", "P", "PB(P2;)",
                                     "PB(PB(P1;[0],[1]))", "PB(P1;[0];[1])"])
    def test_parse_errors(self, bad):
        with pytest.raises((ParseError, UnsupportedVariety)):
            parse_variety(bad)

    def test_divisor_length_checked(self):
        with pytest.raises(UnsupportedVariety):
            parse_divisor("[1,2]", P2)


class TestInterning:
    """``parse_variety`` returns one shared object per text; errors are
    raised afresh on every call."""

    def test_same_text_same_object(self):
        v = parse_variety("PB(P1;[0],[1])")
        assert parse_variety("PB(P1;[0],[1])") is v
        assert parse_variety(" PB( P1 ; [0], [1] )\n") is v
        assert parse_variety("F1") is parse_variety("F1")

    def test_tower_base_is_interned(self):
        base = parse_variety("PB(P1;[0],[1])")
        tower = parse_variety("PB(PB(P1; [0],[1]);[0,0],[1,1])")
        assert tower.base is base
        assert tower.summands.variety is base

    @pytest.mark.parametrize("bad", ["", "Q3", " PB( P2 ) ", "PB(P2;)",
                                     "PB(P1;[0],[x])", "PB(P2;[1])",
                                     "PB( PB(P1;[0],[1]) ; [0])"])
    def test_errors_are_raised_every_time(self, bad):
        # a valid base is interned on the first call, the bad text never
        messages, sizes = [], []
        for _ in range(2):
            with pytest.raises((ParseError, UnsupportedVariety)) as err:
                parse_variety(bad)
            messages.append(str(err.value))
            sizes.append(picard._intern_variety.cache_info().currsize)
        assert messages[0] == messages[1] and sizes[0] == sizes[1]

    def test_error_names_the_text_as_given(self):
        with pytest.raises(ParseError, match=r"^cannot parse variety ' Q3 '$"):
            parse_variety(" Q3 ")
        with pytest.raises(ParseError, match=r"needs 'base;divisors': 'PB\( P2 \)'$"):
            parse_variety("PB( P2 )")

    def test_memo_is_bounded(self):
        size = picard._intern_variety.cache_info().maxsize
        first = parse_variety("P1")
        for n in range(1, size + 20):
            assert parse_variety(f"P{n}").dim == n
        assert picard._intern_variety.cache_info().currsize == size
        # P1 was evicted: parsed again, to an equal new object
        again = parse_variety("P1")
        assert again == first and again is not first

    def test_tower_hash_is_linear_in_depth(self):
        # hashing a divisor's or a split bundle's variety again at every
        # summand made a tower's hash about 4x dearer per level (over a
        # second at depth 11): depth 14 would take minutes
        for depth in (11, 14):
            v = parse_variety(rank2_tower(depth))
            start = time.perf_counter()
            hash(v)
            assert time.perf_counter() - start < 0.05, depth

    def test_separately_parsed_towers_hash_equal(self):
        text = rank2_tower(14)
        first = parse_variety(text)
        picard._intern_variety.cache_clear()
        second = parse_variety(text)
        assert second is not first and hash(second) == hash(first)
        small = parse_variety(rank2_tower(3))
        picard._intern_variety.cache_clear()
        assert parse_variety(rank2_tower(3)) == small

    def test_separately_built_towers_compare_in_linear_time(self):
        # each level compared its base again through its split bundle and
        # every summand, about 4x dearer per level: depth 14 would take
        # minutes
        def built(depth, bottom=1):
            v = ProjSpace(1)
            for j in range(depth):
                top = (0,) * j + ((bottom if j == 0 else 1),)
                v = ProjBundle(v, SplitBundle(v, (DivisorClass(v, (0,) * (j + 1)),
                                                  DivisorClass(v, top))))
            return v

        parsed = parse_variety(rank2_tower(14))
        first, second = built(14), built(14)
        start = time.perf_counter()
        assert first == second == parsed and first is not second
        assert time.perf_counter() - start < 0.05
        assert hash(first) == hash(second) == hash(parsed)
        # one summand differs, at the top level or only at the bottom one
        low, high = first.summands.summands
        top = ProjBundle(first.base, SplitBundle(first.base, (low, 2 * high)))
        assert top != first and first != top
        assert built(14, bottom=2) != first and first != built(14, bottom=2)

    def test_divisors_on_different_varieties_differ(self):
        # the variety is not hashed, but it is still compared
        f1, quadric = parse_variety("F1"), parse_variety("P1xP1")
        on_f1, on_quadric = DivisorClass(f1, (1, 1)), DivisorClass(quadric, (1, 1))
        assert on_f1 != on_quadric and len({on_f1, on_quadric}) == 2
        assert line_bundle(f1, (1, 1)) != line_bundle(quadric, (1, 1))
        with pytest.raises(UnsupportedVariety, match="across varieties"):
            on_f1 + on_quadric
