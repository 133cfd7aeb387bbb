"""Kernel-bundle presentations, exact rank certificates, twisted tables."""

from fractions import Fraction

import pytest

from ulrichbundles import (
    DivisorClass,
    NotSurjective,
    ProjSpace,
    TwistedKernel,
    euler_characteristic,
    h0_multiplication_rank,
    is_ulrich,
    kernel_cohomology,
    lemma_conditions_check,
    line_bundle,
    prop61_builder,
    random_presentation,
    staircase_matrix,
    staircase_presentation,
    sym_euler_matrix,
    sym_euler_presentation,
)
from ulrichbundles.exactlinalg import PRIME
from ulrichbundles.kernelbundle import KernelBundlePresentation, LinearFormMatrix

P2 = ProjSpace(2)


def form(*coeffs):
    return tuple(coeffs)


class TestStaircaseMatrix:
    def test_euler_row(self):
        m = staircase_matrix(2, 0)
        assert (m.b2, m.b1) == (1, 3)
        assert m.entries[0] == (form(1, 0, 0), form(0, 1, 0), form(0, 0, 1))

    def test_two_rows(self):
        m = staircase_matrix(2, 1)
        assert (m.b2, m.b1) == (2, 4)
        assert m.entries[0] == (form(1, 0, 0), form(0, 1, 0), form(0, 0, 1),
                                form(0, 0, 0))
        assert m.entries[1] == (form(0, 0, 0), form(1, 0, 0), form(0, 1, 0),
                                form(0, 0, 1))

    def test_p3_staircase(self):
        m = staircase_matrix(3, 1)
        assert (m.b2, m.b1) == (2, 5) and m.kernel_rank == 3

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("d", range(0, 7))
    def test_balance_identity(self, n, d):
        m = staircase_matrix(n, d)
        assert (d + 1) * m.b1 == (n + d + 1) * m.b2


class TestSymEulerMatrix:
    def test_p3_euler_row(self):
        m = sym_euler_matrix(3, 0)
        assert (m.b2, m.b1) == (1, 4) and m.kernel_rank == 3

    def test_p2_d1(self):
        m = sym_euler_matrix(2, 1)
        assert (m.b2, m.b1) == (3, 6) and m.kernel_rank == 3

    def test_same_as_staircase_at_d0(self):
        assert sym_euler_matrix(2, 0).entries == staircase_matrix(2, 0).entries

    @pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (3, 1)])
    def test_contraction_entries_scale(self, n, d):
        # entry (beta, beta + e_v) carries coefficient (beta_v + 1)
        m = sym_euler_matrix(n, d)
        from ulrichbundles.kernelbundle import monomial_exponents

        rows = monomial_exponents(n, d)
        cols = monomial_exponents(n, d + 1)
        for bi, beta in enumerate(rows):
            for ci, alpha in enumerate(cols):
                entry = m.entries[bi][ci]
                diff = [a - b for a, b in zip(alpha, beta)]
                if min(diff) >= 0 and sum(diff) == 1:
                    v = diff.index(1)
                    assert entry[v] == alpha[v]
                else:
                    assert not any(entry)


class TestCertificates:
    def test_staircase_exact(self):
        p = staircase_presentation(3, 2)
        assert p.surjectivity.exact
        assert p.surjectivity.method == "min-coordinate-triangular"

    def test_sym_euler_exact(self):
        p = sym_euler_presentation(3, 2)
        assert p.surjectivity.exact

    def test_random_rank_two_target_exact(self):
        p = random_presentation(2, 1, seed=42)
        assert p.surjectivity.exact
        assert p.surjectivity.method == "binary-form-resultant"

    def test_random_on_p1_exact(self):
        p = random_presentation(1, 3, seed=5)
        assert p.surjectivity.exact

    def test_degenerate_row_rejected(self):
        # single row (x0, x0, x0) vanishes at [0:1:0] and [0:0:1]
        entries = ((form(1, 0, 0), form(1, 0, 0), form(1, 0, 0)),)
        with pytest.raises(NotSurjective):
            KernelBundlePresentation(LinearFormMatrix(2, 0, entries), "custom")

    def test_degenerate_two_rows_rejected(self):
        # both rows multiples of the same form: v^T alpha = 0 has solutions
        entries = (
            (form(1, 0, 0), form(0, 1, 0), form(0, 0, 1)),
            (form(2, 0, 0), form(0, 2, 0), form(0, 0, 2)),
        )
        m = LinearFormMatrix(2, 1, (entries[0] + (form(0, 0, 0),),
                                    entries[1] + (form(0, 0, 0),)))
        with pytest.raises(NotSurjective):
            KernelBundlePresentation(m, "custom")

    def test_heuristic_path_for_wide_targets(self):
        p = random_presentation(2, 2, seed=11)
        assert p.surjectivity.method in ("point-sampling",
                                         "min-coordinate-triangular")


class TestH0Rank:
    def test_euler_bijective(self):
        assert h0_multiplication_rank(staircase_matrix(2, 0), 0) == (3, 3, 3)

    def test_staircase21_bijective(self):
        assert h0_multiplication_rank(staircase_matrix(2, 1), 0) == (12, 12, 12)

    def test_random_generic_bijective(self):
        m = random_presentation(2, 1, seed=42).matrix
        assert h0_multiplication_rank(m, 0) == (12, 12, 12)

    def test_negative_twist_empty(self):
        # source sections vanish; the target O(0)^2 has two constants
        assert h0_multiplication_rank(staircase_matrix(2, 1), -2) == (0, 2, 0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_bijectivity_certificates(self, n, d):
        src, tgt, rank = h0_multiplication_rank(staircase_matrix(n, d), 0)
        assert src == tgt == rank


class TestScaledCoefficients:
    """Scaling every coefficient by a unit of Q changes no rank.  Scaling by
    PRIME makes every rank vanish mod PRIME, so the exact fallback runs."""

    @pytest.mark.parametrize("scale", [PRIME, Fraction(1, 3)])
    @pytest.mark.parametrize("t", [0, 2, -6])
    def test_same_ranks_and_table(self, scale, t):
        base = staircase_presentation(2, 1)
        m = base.matrix
        scaled = LinearFormMatrix(m.n, m.d, tuple(
            tuple(tuple(scale * c for c in entry) for entry in row)
            for row in m.entries))
        # a unit multiple of a surjective map is surjective
        pres = KernelBundlePresentation(scaled, base.kind,
                                        surjectivity=base.surjectivity)
        assert h0_multiplication_rank(scaled, t) == h0_multiplication_rank(m, t)
        assert kernel_cohomology(pres, t).h == kernel_cohomology(base, t).h


class TestKernelCohomology:
    def test_sym_euler_p3_d2_twist6(self):
        # 2200 x 3300 section map; chi = 20 C(11,3) - 10 C(12,3)
        table = kernel_cohomology(sym_euler_presentation(3, 2), 6)
        assert table.h == (1100, 0, 0, 0)

    def test_omega1_twists(self):
        p = staircase_presentation(2, 0)
        assert kernel_cohomology(p, 0).h == (0, 0, 0)
        assert kernel_cohomology(p, -3).h == (0, 0, 3)

    def test_dead_band_twist(self):
        p = staircase_presentation(2, 1)
        assert kernel_cohomology(p, -3).h == (0, 0, 0)

    def test_rank_nullity(self):
        for pres in (staircase_presentation(2, 1), sym_euler_presentation(2, 1),
                     staircase_presentation(3, 2)):
            m = pres.matrix
            n = m.n
            for t in range(-2 * n - 2, 2 * n + 3):
                table = kernel_cohomology(pres, t)
                pn = ProjSpace(n)
                chi = (m.b1 * euler_characteristic(pn, DivisorClass(pn, (m.d + t,)))
                       - m.b2 * euler_characteristic(pn, DivisorClass(pn, (m.d + 1 + t,))))
                assert table.chi == chi, (pres.kind, t)

    def test_staircase_equals_sym_euler_at_d0(self):
        for n in (1, 2, 3):
            a = staircase_presentation(n, 0)
            b = sym_euler_presentation(n, 0)
            for t in range(-2 * n, 2 * n + 1):
                assert kernel_cohomology(a, t).h == kernel_cohomology(b, t).h

    def test_serre_dual_side(self):
        # h^2(Omega(1)(t)) = h^0(T(-t-4)) via the Euler sequence dual
        p = staircase_presentation(2, 0)
        assert kernel_cohomology(p, -4).h == (0, 0, 8)

    def test_p1_kernel(self):
        # kernel of O^2 -> O(1) on P^1 is O(-1)
        p = staircase_presentation(1, 0)
        assert kernel_cohomology(p, 0).h == (0, 0)
        assert kernel_cohomology(p, 1).h == (1, 0)
        assert kernel_cohomology(p, -1).h == (0, 1)


class TestLemmaConditions:
    def test_staircase20(self):
        assert lemma_conditions_check(staircase_presentation(2, 0)).passed

    def test_staircase21(self):
        rep = lemma_conditions_check(staircase_presentation(2, 1))
        assert rep.passed
        assert [lab for lab, _ in rep.tables] == ["F", "F(-3)"]

    def test_staircase33(self):
        assert lemma_conditions_check(staircase_presentation(3, 3)).passed

    def test_equivalent_to_assembled_ulrich_test(self):
        # on P^2 the two conditions are the Ulrich test of F(d+2) w.r.t. O(d+2)
        for d in (0, 1, 2):
            p = staircase_presentation(2, d)
            lemma = lemma_conditions_check(p)
            cand = TwistedKernel(p, d + 2)
            rep = is_ulrich(P2, cand, DivisorClass(P2, (d + 2,)))
            assert lemma.passed == rep.verdict
            assert rep.verdict


class TestProp61:
    def test_rank_two_on_blowup_of_p3(self):
        res = prop61_builder(2, 1)
        assert res.report.verdict
        assert res.presentation.rank == 2
        assert len(res.report.checks) == 3
        assert all(c.ok for c in res.report.checks)

    def test_d2_lemma_parameter_matches(self):
        res = prop61_builder(2, 2)
        assert res.report.verdict
        assert res.presentation.matrix.d == 2
        assert res.condition_twists == (4,)

    def test_p3_discrepancy_report(self):
        res = prop61_builder(3, 1)
        assert not res.report.verdict
        assert res.presentation is None
        assert res.condition_twists == (3, 4, 5)
        assert any("O(2n+1)" in note or "O(n), O(n+1), ..., O(2n+1)" in note
                   for note in res.report.notes)
        assert any("hits []" in note for note in res.report.notes)


class TestSerialization:
    def test_matrix_round_trip_strings(self):
        m = staircase_matrix(2, 1)
        data = m.to_json()
        rebuilt = LinearFormMatrix(2, 1, tuple(
            tuple(tuple(Fraction(c) for c in entry) for entry in row)
            for row in data))
        assert rebuilt.entries == m.entries

    def test_presentation_payload(self):
        p = staircase_presentation(2, 1)
        kernel_cohomology(p, 0)
        data = p.to_json()
        assert data["n"] == 2 and data["d"] == 1
        assert data["b1"] == 4 and data["b2"] == 2 and data["rank"] == 2
        assert data["surjectivity"]["exact"] is True
        assert data["h0_certificates"]["0"] == [12, 12, 12]
