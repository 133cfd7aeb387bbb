"""Acceptance suite: one test per criterion, exact tolerances, timed.

Each test prints a single PASS line on success (run with ``pytest -s`` or
``-rA`` to see them); failures surface as ordinary assertion errors.
"""

import contextlib
import io
import itertools
import json
import random
import time

from ulrichbundles import (
    DivisorClass,
    ProjBundle,
    ProjSpace,
    SearchBox,
    SplitBundle,
    TwistedKernel,
    cohomology,
    direct_ulrich_check,
    euler_characteristic,
    h0_multiplication_rank,
    hirzebruch,
    is_ulrich,
    kernel_cohomology,
    lemma_conditions_check,
    line_bundle,
    minimal_ample_direction,
    prop61_builder,
    pullback_ulrich_criterion,
    serre_partner,
    staircase_matrix,
    staircase_presentation,
    sym_euler_matrix,
    toric_cech_oracle,
    ulrich_line_bundles,
    very_ample_threshold,
)
from ulrichbundles.cli import run as cli_run

P1 = ProjSpace(1)
P2 = ProjSpace(2)


def run_cli(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_run(args)
    return code, buf.getvalue()


def _passed(num, text):
    print(f"ACCEPTANCE {num:02d} PASS - {text}")


def test_criterion_01_hirzebruch_ulrich_classification():
    start = time.monotonic()
    for r in range(1, 6):
        for a in range(1, 6):
            code, out = run_cli(["enum-ulrich", f"F{r}", "--pol", f"[{a},1]",
                                 "--box", "10", "--json"])
            assert code == 0
            payload = json.loads(out)
            expected = sorted([[a - 1, 1], [r - 1 + 2 * a, 0]])
            assert payload["closed_form"]["members"] == expected, (r, a)
            in_box = [c for c in expected if max(map(abs, c)) <= 10]
            assert payload["results"] == in_box, (r, a)
    elapsed = time.monotonic() - start
    assert elapsed < 10
    _passed(1, f"25 classifications exact in {elapsed:.1f}s")


def test_criterion_02_higher_degree_emptiness():
    start = time.monotonic()
    for r in range(1, 4):
        for a in range(1, 4):
            for b in (2, 3):
                result = ulrich_line_bundles(
                    hirzebruch(r), DivisorClass(hirzebruch(r), (a, b)),
                    SearchBox.symmetric(hirzebruch(r), 10))
                assert result.results == (), (r, a, b)
    elapsed = time.monotonic() - start
    assert elapsed < 10
    _passed(2, f"18 steep polarisations all empty in {elapsed:.1f}s")


def test_criterion_03_quadric_grid():
    q = hirzebruch(0)
    for a in range(1, 5):
        for b in range(1, 5):
            result = ulrich_line_bundles(q, DivisorClass(q, (a, b)),
                                         SearchBox.symmetric(q, 10))
            expected = tuple(sorted({(a - 1, 2 * b - 1), (2 * a - 1, b - 1)}))
            assert result.results == expected, (a, b)
    _passed(3, "16 quadric polarisations exact")


def test_criterion_04_vanishing_list_with_erratum():
    for r in range(1, 5):
        code, out = run_cli(["enum-zero", f"F{r}", "--box", "6", "--json"])
        assert code == 0
        expected = {(-1, 0), (r - 1, -2)} | {(i, -1) for i in range(-6, 7)}
        got = {tuple(c) for c in json.loads(out)["results"]}
        assert got == expected, r
        # erratum detector: the often-quoted third entry is the canonical
        # class and has h^2 = 1
        fr = hirzebruch(r)
        assert cohomology(fr, DivisorClass(fr, (r - 2, -2))).h[2] == 1, r
    _passed(4, "vanishing lists r=1..4 exact, erratum detector fires")


def test_criterion_05_oracle_agreement():
    start = time.monotonic()
    varieties = [P2, hirzebruch(1), hirzebruch(2), hirzebruch(3), hirzebruch(0)]
    mismatches = 0
    checked = 0
    for v in varieties:
        for coords in itertools.product(range(-6, 7), repeat=v.picard_rank):
            d = DivisorClass(v, coords)
            if toric_cech_oracle(v, d).h != cohomology(v, d).h:
                mismatches += 1
            checked += 1
    elapsed = time.monotonic() - start
    assert mismatches == 0 and checked == 4 * 169 + 13
    assert elapsed < 60
    _passed(5, f"{checked} oracle comparisons, zero mismatches, {elapsed:.1f}s")


def test_criterion_06_criterion_direct_equivalence():
    from ulrichbundles import render_bundle, render_divisor, render_variety

    rng = random.Random(20240615)
    bases = [P1, P2, hirzebruch(0), hirzebruch(1), hirzebruch(2), hirzebruch(3)]
    agree = 0
    total = 500
    for i in range(total):
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
        # the direct check raises InternalInconsistency (CLI exit 3) on any
        # disagreement; reaching the assert means exit code 3 never happens
        direct = direct_ulrich_check(v, f, a)
        assert crit.verdict == direct.verdict
        if i % 25 == 0:  # spot-check the literal CLI exit code as well
            code, _ = run_cli(["direct", render_variety(v), render_bundle(f),
                               "--pol", render_divisor(a), "--json"])
            assert code == 0
        agree += 1
    assert agree == total
    _passed(6, f"{total} random instances, 100% criterion/direct agreement")


def test_criterion_07_serre_partner_closure():
    def closed_form_set(v, pol):
        result = ulrich_line_bundles(v, pol, SearchBox.symmetric(v, 10))
        return {tuple(c) for c in result.closed_form["members"]}

    sets_checked = 0
    cases = [(hirzebruch(r), (a, 1)) for r in range(1, 6) for a in range(1, 6)]
    cases += [(hirzebruch(0), (a, b)) for a in range(1, 5) for b in range(1, 5)]
    for v, pol_coords in cases:
        pol = DivisorClass(v, pol_coords)
        members = closed_form_set(v, pol)
        assert members
        for coords in members:
            f = line_bundle(v, coords)
            partner, _ = serre_partner(v, f, pol)
            assert partner.multiset()[0] in members, (v.name, pol_coords, coords)
            again, _ = serre_partner(v, partner, pol)
            assert again.same_summands(f)
        sets_checked += 1
    _passed(7, f"partner closure and involution on {sets_checked} Ulrich sets")


def test_criterion_08_tangent_bundle_reproduction():
    p20 = staircase_presentation(2, 0)
    assert lemma_conditions_check(p20).passed
    # assembled Ulrich test: F(2) w.r.t. O(2), entirely from kernel tables
    report = is_ulrich(P2, TwistedKernel(p20, 2), DivisorClass(P2, (2,)))
    assert report.verdict
    p21 = staircase_presentation(2, 1)
    assert kernel_cohomology(p21, 0).is_zero()
    assert kernel_cohomology(p21, -3).is_zero()
    _passed(8, "staircase(2,0) is the rank-2 Ulrich bundle for O(2); "
               "staircase(2,1) has H(F) = H(F(-3)) = 0")


def test_criterion_09_blowup_of_p3():
    code, out = run_cli(["search-pb", "PB(P2;[1],[0])", "--pol", "[1]",
                         "--box", "6", "--json"])
    assert code == 0 and json.loads(out)["results"] == []
    result = prop61_builder(2, 1)
    assert result.report.verdict
    assert result.presentation.rank == 2
    assert len(result.report.checks) == 3
    assert all(c.ok for c in result.report.checks)
    _passed(9, "no Ulrich line bundles on the blowup; rank-2 construction "
               "passes all three twists")


def test_criterion_10_staircase_certificates():
    start = time.monotonic()
    for n in range(1, 4):
        for d in range(0, 4):
            src, tgt, rank = h0_multiplication_rank(staircase_matrix(n, d), 0)
            assert src == tgt == rank, (n, d)
    for n in range(1, 7):
        for d in range(0, 7):
            m = staircase_matrix(n, d)
            assert (d + 1) * m.b1 == (n + d + 1) * m.b2
    from math import comb

    for n in range(1, 4):
        for d in range(0, 4):
            m = sym_euler_matrix(n, d)
            assert m.kernel_rank == comb(n + d, n - 1)
    elapsed = time.monotonic() - start
    assert elapsed < 30
    _passed(10, f"bijectivity, balance and rank identities in {elapsed:.1f}s")


def test_criterion_11_chi_cross_check():
    mismatches = 0
    for r in range(0, 5):
        fr = hirzebruch(r)
        for a in range(-8, 9):
            for b in range(-8, 9):
                d = DivisorClass(fr, (a, b))
                if euler_characteristic(fr, d) != cohomology(fr, d).chi:
                    mismatches += 1
    assert mismatches == 0
    _passed(11, "closed chi polynomial equals alternating sum on 1445 classes")


def test_criterion_12_projectivisation_twist_invariance():
    rng = random.Random(777)
    bases = [P1, P2, hirzebruch(1), hirzebruch(2), hirzebruch(0)]
    for i in range(100):
        base = rng.choice(bases)
        rank = rng.randint(2, 4)
        summands = [tuple(rng.randint(-3, 3) for _ in range(base.picard_rank))
                    for _ in range(rank)]
        ell = tuple(rng.randint(-3, 3) for _ in range(base.picard_rank))
        b = tuple(rng.randint(-4, 4) for _ in range(base.picard_rank))
        k = rng.randint(-5, 5)
        e = SplitBundle(base, tuple(DivisorClass(base, s) for s in summands))
        v1 = ProjBundle(base, e)
        v2 = ProjBundle(base, e.twist(DivisorClass(base, ell)))
        left = cohomology(v1, DivisorClass(v1, b + (k,)))
        b_adj = tuple(x - k * l for x, l in zip(b, ell))
        right = cohomology(v2, DivisorClass(v2, b_adj + (k,)))
        assert left.h == right.h, (base.name, summands, ell, b, k)
    _passed(12, "100 seeded twist-identity samples exact")


def test_criterion_13_rank_n_discrepancy_report():
    start = time.monotonic()
    result = prop61_builder(3, 1, line_box=8, presentation_bound=4)
    elapsed = time.monotonic() - start
    assert not result.report.verdict
    assert result.presentation is None
    notes = " | ".join(result.report.notes)
    assert "O(n), O(n+1), ..., O(2n+1)" in notes
    assert "hits []" in notes
    assert result.condition_twists == (3, 4, 5)
    assert elapsed < 120
    _passed(13, f"empty search with discrepancy note in {elapsed:.1f}s")
