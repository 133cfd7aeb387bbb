"""Kernel-bundle presentations, exact rank certificates, twisted tables."""

import contextlib
import hashlib
import io
import itertools
import json
import random
import time
from fractions import Fraction
from math import comb, lcm, prod

import pytest

from ulrichbundles import (
    BoxTooLarge,
    DivisorClass,
    InternalInconsistency,
    NotSurjective,
    ProjSpace,
    TwistedKernel,
    UnsupportedVariety,
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
from ulrichbundles.cli import run
from ulrichbundles.exactlinalg import PRIME
from ulrichbundles.ulrich import UlrichReport
from ulrichbundles import exactlinalg, kernelbundle
from ulrichbundles.cohomology import _zero_interval
from ulrichbundles.kernelbundle import (
    KernelBundlePresentation,
    LinearFormMatrix,
    SurjectivityCertificate,
    _rank_table,
    _certify_sampling,
    _sections_onto,
    _triangular_charts,
    _unit,
    check_presentation_size,
    monomial_exponents,
    random_matrix,
    rank_route_cells,
)

P2 = ProjSpace(2)


def form(*coeffs):
    return tuple(coeffs)


class TestMatrixShape:
    @pytest.mark.parametrize("entries, detail", [
        ((), "empty matrix"),
        (((),), "empty matrix"),
        (((form(1, 0), form(0, 1), form(1, 1)),), "entries must have n+1 coefficients"),
        (((form(1, 0, 0), form(0, 1, 0)), (form(0, 0, 1), form(1, 0, 0))),
         "need more columns than rows (b1 > b2)"),
        (((form(Fraction(1, 2), 0, 0), form(0, 1, 0), form(0, 0, 1)),),
         "coefficients must be integers"),
        (((form(1, 0, 0), form(0, 1, 0), form(0, 0, 1), form(0, 0.0, 0)),),
         "coefficients must be integers"),
    ], ids=["no-rows", "empty-row", "short-forms", "square", "fraction", "float-zero"])
    def test_refused(self, entries, detail):
        with pytest.raises(UnsupportedVariety) as err:
            LinearFormMatrix(2, 0, entries)
        assert str(err.value) == detail


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


class TestConstructionPaths:
    """The built-in constructors pass dense integer rows through the one
    constructor, as a hand-built matrix does: a hand-built copy of a
    built-in matrix is the same matrix."""

    BUILDERS = {"staircase": staircase_presentation,
                "sym-euler": sym_euler_presentation,
                "random": lambda n, d: random_presentation(n, d, 10 * n + d)}

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_hand_built_copy_agrees(self, kind):
        for n, d in itertools.product(range(1, 5), range(0, 5)):
            built = self.BUILDERS[kind](n, d)
            m = built.matrix
            copy = LinearFormMatrix(n, d, tuple(
                tuple(tuple(map(int, e)) for e in row) for row in m.entries))
            assert all(type(c) is int for row in m.entries for e in row for c in e)
            assert copy == m
            assert copy.int_rows == m.int_rows
            assert copy.entries == m.entries
            assert copy.to_json() == m.to_json()
            again = KernelBundlePresentation(copy, kind, seed=built.seed)
            assert again.route == built.route
            assert again.to_json() == built.to_json()

    def test_contraction_rows_built_once(self):
        # the route of a matrix of the contraction's shape is read against
        # the one shared contraction, so its rows are built once per (n, d)
        first = sym_euler_matrix(3, 2)
        built = sym_euler_matrix.cache_info().misses
        copy = LinearFormMatrix(3, 2, first.entries)
        assert KernelBundlePresentation(copy, "sym-euler").route == "borel-weil-bott"
        assert sym_euler_matrix(3, 2) is first
        assert sym_euler_matrix.cache_info().misses == built

    def test_contraction_matrix_built_once_and_read_only(self):
        # the constructor's checks visit every cell, so a wide contraction
        # is built whole once per (n, d) and shared, sparse view included
        m = sym_euler_matrix(4, 6)
        assert sym_euler_matrix(4, 6) is m
        assert sym_euler_presentation(4, 6).matrix is m
        with pytest.raises(TypeError):
            m.int_rows[0][0] = form(1, 0, 0, 0, 0)

    def test_sym_json_is_byte_stable(self, capsys):
        outs = []
        for _ in range(2):
            assert run(["kernel", "3", "2", "--sym", "--json"]) == 0
            outs.append(capsys.readouterr().out.encode())
        assert outs[0] == outs[1]

    def test_built_ins_share_the_shape_checks(self):
        for build in (staircase_matrix, sym_euler_matrix):
            with pytest.raises(UnsupportedVariety) as err:
                build(-1, 1)
            assert str(err.value) == "need n >= 1, d >= 0; got (-1, 1)"
        with pytest.raises(UnsupportedVariety) as err:
            kernelbundle.random_matrix(2, -1, 1)
        assert str(err.value) == "need n >= 1, d >= 0; got (2, -1)"


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
        with pytest.raises(NotSurjective, match="row of linear forms has a common zero"):
            KernelBundlePresentation(LinearFormMatrix(2, 0, entries), "custom")

    def test_degenerate_two_rows_rejected(self):
        # both rows multiples of the same form: v^T alpha = 0 has solutions
        entries = (
            (form(1, 0, 0), form(0, 1, 0), form(0, 0, 1)),
            (form(2, 0, 0), form(0, 2, 0), form(0, 0, 2)),
        )
        m = LinearFormMatrix(2, 1, (entries[0] + (form(0, 0, 0),),
                                    entries[1] + (form(0, 0, 0),)))
        with pytest.raises(NotSurjective,
                           match="some corank-one functional kills a fibre"):
            KernelBundlePresentation(m, "custom")

    def test_two_rows_missing_a_variable_rejected(self):
        # no entry involves x_2, so alpha vanishes at [0:0:1]; L(v) keeps
        # its empty x_2 row, and with it the degree n = 2 of its test
        entries = ((form(1, 0, 0), form(0, 1, 0), form(0, 0, 0), form(1, 1, 0)),
                   (form(0, 0, 0), form(1, 0, 0), form(0, 1, 0), form(2, -1, 0)))
        with pytest.raises(NotSurjective,
                           match="some corank-one functional kills a fibre"):
            KernelBundlePresentation(LinearFormMatrix(2, 1, entries), "custom")

    def test_two_rows_with_too_few_columns_rejected(self):
        # two rows of three forms on P^3: each combination v^T alpha is a
        # row of three linear forms in four variables, which share a zero
        entries = tuple(tuple(_unit(3, (i + c) % 4) for c in range(3))
                        for i in range(2))
        with pytest.raises(NotSurjective,
                           match="too few columns to be pointwise surjective"):
            KernelBundlePresentation(LinearFormMatrix(3, 1, entries), "custom")

    def test_heuristic_path_for_wide_targets(self):
        p = random_presentation(2, 2, seed=11)
        assert (p.surjectivity.method, p.surjectivity.exact) == ("point-sampling", False)

    def test_linear_span_on_the_cli(self, capsys):
        assert run(["kernel", "2", "0", "--random", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "surjectivity: linear-span (exact=True)" in lines

    def test_p1_shared_zero_rejected(self):
        # the minors x0 (x0 - 2 x1), -3 x0 x1 and -3 x0^2 all vanish at x0 = 0
        m = LinearFormMatrix(1, 1, (((1, 0), (2, 0), (3, 0)),
                                    ((0, 1), (1, 0), (0, 0))))
        with pytest.raises(NotSurjective, match="share a zero on P\\^1"):
            KernelBundlePresentation(m, "custom")

    @pytest.mark.parametrize("make, method, detail", [
        (lambda: staircase_presentation(3, 2), "min-coordinate-triangular",
         "each chart has a triangular minor equal to x_j^b2"),
        (lambda: sym_euler_presentation(3, 2), "min-coordinate-triangular",
         "each chart has a triangular minor with diagonal (beta_j+1) x_j"),
        (lambda: random_presentation(2, 0, seed=1), "linear-span",
         "entries span all linear forms"),
        (lambda: random_presentation(1, 3, seed=5), "binary-minor-gcd",
         "maximal minors have no common root on P^1"),
        (lambda: random_presentation(2, 1, seed=42), "binary-form-resultant",
         "no functional v with v^T * alpha singular exists"),
    ])
    def test_exact_method_and_detail(self, make, method, detail):
        assert make().surjectivity.to_json() == {
            "method": method, "exact": True, "detail": detail}

    def test_sampling_method_and_detail(self):
        assert random_presentation(2, 2, seed=11).surjectivity.to_json() == {
            "method": "point-sampling", "exact": False,
            "detail": "full rank at sampled points; "
                      "pencil-restricted minor gcd constant"}

    @pytest.mark.parametrize("make, kind", [(staircase_matrix, "staircase"),
                                            (sym_euler_matrix, "sym-euler")])
    def test_any_row_order(self, make, kind):
        m = make(3, 2)
        flipped = LinearFormMatrix(m.n, m.d, m.entries[::-1])
        cert = KernelBundlePresentation(flipped, kind).surjectivity
        assert (cert.method, cert.exact) == ("min-coordinate-triangular", True)


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _trim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def _laplace_det(entries):
    """Determinant of a matrix of forms c + e*t as a coefficient list in t,
    lowest power first, by Laplace expansion along the first row; integer
    entries give integer coefficients."""
    if not entries:
        return [1]
    total = [0] * (len(entries) + 1)
    for j, (c, e) in enumerate(entries[0]):
        if not c and not e:
            continue
        minor = [row[:j] + row[j + 1:] for row in entries[1:]]
        for i, v in enumerate(_poly_mul([c, e], _laplace_det(minor))):
            total[i] += -v if j % 2 else v
    return total


def _euclid_gcd(a, b):
    while b:
        while len(a) >= len(b):
            f = Fraction(a[-1], b[-1])
            shift = len(a) - len(b)
            a = _trim([x - f * b[i - shift] if i >= shift else x
                       for i, x in enumerate(a)])
        a, b = b, a
    return a


def reference_share_root(pencil) -> bool:
    """The symbolic route, sharing no code with the engine: Laplace-expanded
    maximal minors as polynomials in t, then a Euclid gcd over Q.  Forms of
    degree D all missing their t^D term share the root [0:1]."""
    rows = [list(r) for r in pencil]
    if len(rows) > len(rows[0]):
        rows = [list(r) for r in zip(*rows)]
    size = len(rows)
    assert size <= 4
    forms = [_trim(_laplace_det([[row[j] for j in combo] for row in rows]))
             for combo in itertools.combinations(range(len(rows[0])), size)]
    nonzero = [f for f in forms if f]
    if all(len(f) <= size for f in nonzero):
        return True
    g = nonzero[0]
    for f in nonzero[1:]:
        g = _euclid_gcd(g, f)
    return len(g) > 1


def _entry(rng):
    def coeff():
        return rng.choice((0, 0, rng.randint(-4, 4),
                           Fraction(rng.randint(-9, 9), rng.randint(1, 4))))
    return (coeff(), coeff())


def cleared(row) -> tuple:
    """A row of forms times the lcm of its denominators: integer forms with
    the same zero pattern, and every maximal minor of a matrix that holds
    the row scaled by a nonzero constant, so its rank at each point and its
    roots stay."""
    denom = lcm(*(Fraction(c).denominator for f in row for c in f))
    return tuple(tuple(int(c * denom) for c in f) for f in row)


def seeded_pencil(rng, kind):
    """A pencil of binary linear forms, with a planted common root of its
    maximal minors for kinds "finite" (at [b:a], b != 0) and "infinity"
    (at [0:1]), a zero row for "zero-row", and a 1 x 1 pencil for "single"."""
    if kind == "single":
        return [[_entry(rng)]]
    size = rng.randint(1, 4)
    ncols = size + rng.randint(0, 2)
    rows = [[_entry(rng) for _ in range(ncols)] for _ in range(size)]
    if kind == "zero-row":
        rows[-1] = [(0, 0)] * len(rows[0])
    elif kind in ("finite", "infinity"):
        b, a = (rng.randint(1, 5), rng.randint(-5, 5)) if kind == "finite" else (0, 1)
        lam = [rng.randint(-3, 3) for _ in rows[:-1]]
        for j in range(len(rows[0])):
            # the last row at [b:a] is a combination of the other rows there
            target = sum(lm * (row[j][0] * b + row[j][1] * a)
                         for lm, row in zip(lam, rows))
            e = rng.randint(-4, 4) if b else target
            rows[-1][j] = (Fraction(target - e * a, b) if b else rng.randint(-4, 4), e)
    if rng.random() < 0.5:
        rows = [list(r) for r in zip(*rows)]
    return rows


def engine_share_root(pencil) -> bool:
    """The certificates' decision on a pencil: a tall pencil is transposed
    (it has the same maximal minors), rows are cleared of denominators, and
    its minors share a root iff its section map from degree rows - 1 is
    not onto."""
    rows = list(map(cleared, pencil))
    if len(rows) > len(rows[0]):
        rows = [list(r) for r in zip(*rows)]
    sparse = [{c: e for c, e in enumerate(row) if any(e)} for row in rows]
    return not _sections_onto(sparse, len(rows[0]), 1)


PENCIL_KINDS = ("random", "random", "finite", "infinity", "zero-row", "single")


def pencil_sweep(seeds) -> int:
    """1200 seeded pencils per seed, every kind in turn: the engine's
    decision equals the symbolic route's, and every planted root is found.
    Returns the number of pencils compared."""
    compared = 0
    for seed in seeds:
        rng = random.Random(seed)
        seen = set()
        for i in range(1200):
            kind = PENCIL_KINDS[i % len(PENCIL_KINDS)]
            pencil = seeded_pencil(rng, kind)
            expected = reference_share_root(pencil)
            assert engine_share_root(pencil) == expected, (seed, kind, pencil)
            if kind != "random":
                assert expected, (seed, kind, pencil)
            seen.add((kind, expected))
            compared += 1
        assert ("random", False) in seen and ("random", True) in seen, seed
    return compared


class TestPencilMinors:
    """The section-map decision against the symbolic route; seeds 1-100
    run in CI."""

    def test_agrees_with_symbolic_route(self):
        assert pencil_sweep([2024]) == 1200

    @pytest.mark.parametrize("pencil, shared", [
        ([[(1, 0), (0, 1)]], False),                   # v0, v1
        ([[(1, 0), (2, 0)]], True),                    # v0, 2 v0: root [0:1]
        ([[(0, 1), (0, 3)]], True),                    # v1, 3 v1: root [1:0]
        ([[(0, 0), (0, 0)]], True),                    # zero forms vanish everywhere
        ([[(1, 2)]], True),                            # one linear form has a root
        ([[(1, 0), (0, 1), (0, 0)],
          [(0, 0), (1, 0), (0, 1)]], False),             # staircase: v0^2, v0 v1, v1^2
        ([[(1, 0), (0, 1), (0, 0)],
          [(0, 1), (1, 0), (1, 1)]], True),              # all vanish at t = -1
    ])
    def test_examples(self, pencil, shared):
        assert reference_share_root(pencil) == shared
        assert engine_share_root(pencil) == shared

    def test_degree_bound_is_sharp(self):
        # the staircase [[v0, v1, 0], [0, v0, v1]] is onto everywhere; its
        # kernel O(-2) is spanned by (v1^2, -v0 v1, v0^2), so the section map
        # is onto from degree b2 - 1 = 1, and in degree 0 its cokernel is
        # H^1(O(-2)), of dimension 1
        rows = [{0: (1, 0), 1: (0, 1)}, {1: (1, 0), 2: (0, 1)}]
        assert _sections_onto(rows, 3, 1)
        assert kernelbundle._multiplication_rank(rows, 3, 1, 0) == (3, 4, 3)


class TestPencilCertificateTime:
    """The pencil certificates cost one section-map rank of about b2^2 x b1 b2
    entries, block-bidiagonal on P^1.  A symbolic Laplace expansion of the
    maximal minors costs factorial time, and numeric minors C(b1, b2)
    determinants at 2 b2 points."""

    @pytest.mark.parametrize("n, d, line", [
        (1, 6, "surjectivity: binary-minor-gcd (exact=True)"),
        (6, 1, "surjectivity: binary-form-resultant (exact=True)"),
        (2, 5, "surjectivity: point-sampling (exact=False)"),
    ])
    def test_random_presentation_within_a_second(self, n, d, line, capsys):
        start = time.perf_counter()
        code = run(["kernel", str(n), str(d), "--random", "1"])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert line in capsys.readouterr().out.splitlines()
        assert elapsed < 1.0

    def test_wide_sampling_line_within_a_second(self):
        # the seeded line of kernel 2 20 is a 21 x 23 pencil with C(23, 21)
        # maximal minors of size 21; the lemma's section-map cap then refuses
        code, out, elapsed = timed_json(["kernel", "2", "20", "--random", "1", "--json"])
        assert code == 2 and out["error"] == "box-too-large"
        assert "section map cells" in out["detail"]
        assert elapsed < 1.0


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
    """Scaling every coefficient by a nonzero integer changes no rank.
    Scaling by PRIME makes every rank vanish mod PRIME, so the exact
    fallback runs.  The staircase takes the Buchsbaum-Rim table, so the
    rank route is also called directly."""

    @pytest.mark.parametrize("scale", [PRIME])
    @pytest.mark.parametrize("t", [0, 2, -6])
    def test_same_ranks_and_table(self, scale, t):
        base = staircase_presentation(2, 1)
        m = base.matrix
        scaled = LinearFormMatrix(m.n, m.d, tuple(
            tuple(tuple(scale * c for c in entry) for entry in row)
            for row in m.entries))
        # a unit multiple of a surjective map is surjective, and the
        # scaled staircase certifies itself so
        pres = KernelBundlePresentation(scaled, base.kind)
        assert pres.surjectivity == base.surjectivity
        assert h0_multiplication_rank(scaled, t) == h0_multiplication_rank(m, t)
        assert _rank_table(pres, t).h == kernel_cohomology(base, t).h
        assert pres.h0_certificates[t] == base.h0_certificates[t]
        assert kernel_cohomology(pres, t).h == kernel_cohomology(base, t).h


class TestCertificatesAreDerived:
    """A presentation derives every certificate from its matrix and kind;
    none can be passed in and trusted."""

    def test_no_surjectivity_certificate_is_taken(self):
        # the row (x0, x0, 0) vanishes where x0 does, so it is not onto
        m = LinearFormMatrix(2, 0, (((1, 0, 0), (1, 0, 0), (0, 0, 0)),))
        with pytest.raises(NotSurjective):
            KernelBundlePresentation(m, "custom")
        with pytest.raises(TypeError):
            KernelBundlePresentation(m, "custom", surjectivity=SurjectivityCertificate(
                "trusted", True, ""))

    def test_no_h0_certificate_is_taken(self):
        with pytest.raises(TypeError):
            KernelBundlePresentation(random_matrix(2, 2, 1), "random", seed=1,
                                     h0_certificates={0: (99, 99, 0)})
        pres = KernelBundlePresentation(random_matrix(2, 2, 1), "random", seed=1)
        assert pres.route == "ranks" and pres.h0_certificates == {}
        assert kernel_cohomology(pres, 0).h == (0, 0, 0)
        assert pres.h0_certificates == {0: (30, 30, 30)}

    def test_chart_verdict_is_each_matrix_objects_own(self):
        # the built-in staircase(3, 2) is certified and shared first; a
        # hand-built matrix of the same (n, d) with x_2 below the diagonal
        # is still read off its own entries, and refused
        assert staircase_presentation(3, 2).surjectivity.exact
        rows = [list(row) for row in staircase_matrix(3, 2).entries]
        rows[1][0] = (0, 0, 1, 0)
        m = LinearFormMatrix(3, 2, tuple(map(tuple, rows)))
        with pytest.raises(InternalInconsistency, match="staircase triangularity"):
            KernelBundlePresentation(m, "staircase")

    def test_charts_decided_once_per_matrix_object(self, monkeypatch):
        charts = kernelbundle._triangular_charts
        calls = []
        monkeypatch.setattr(kernelbundle, "_triangular_charts",
                            lambda m: calls.append(m) or charts(m))
        copy = LinearFormMatrix(2, 3, staircase_matrix(2, 3).entries)
        for _ in range(2):
            KernelBundlePresentation(copy, "staircase")
        assert calls == [copy]
        assert staircase_presentation(2, 3).matrix is staircase_matrix(2, 3)
        # the built-ins are shared per (n, d), so a warm request reads none
        for _ in range(2):
            calls.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                assert run(["kernel", "4", "3", "--sym"]) == 0
        assert calls == []


def sweep_presentations():
    """(route, build) of every presentation the closed forms are swept on."""
    for n in range(1, 6):
        for d in range(0, 6 if n < 4 else 4):
            yield "buchsbaum-rim", lambda n=n, d=d: staircase_presentation(n, d)
    for n, top in ((1, 3), (2, 3), (3, 2), (4, 1)):
        for d in range(0, top + 1):
            route = "buchsbaum-rim" if n == 1 or d == 0 else "borel-weil-bott"
            yield route, lambda n=n, d=d: sym_euler_presentation(n, d)
    for seed in (1, 2, 3):
        for n in range(1, 7):
            for d in range(0, 7 - n):
                pres = random_presentation(n, d, seed)
                if pres.surjectivity.exact:
                    yield "buchsbaum-rim", lambda n=n, d=d, seed=seed: \
                        random_presentation(n, d, seed)


def closed_form_sweep(max_cells=None) -> int:
    """Every closed-form table equals the rank route's, H^0 certificate
    included, for t in [-(n+d+4), 3]; with ``max_cells``, only twists whose
    section maps stay under it.  Returns the number of twists compared."""
    compared = 0
    for route, build in sweep_presentations():
        closed, ranks = build(), build()
        assert closed.route == route, (closed, closed.route)
        m = closed.matrix
        for t in range(-(m.n + m.d + 4), 4):
            if max_cells is not None and rank_route_cells(m, t) > max_cells:
                continue
            assert kernel_cohomology(closed, t) == _rank_table(ranks, t), (closed, t)
            assert closed.h0_certificates[t] == ranks.h0_certificates[t], (closed, t)
            compared += 1
    return compared


class TestClosedFormTables:
    """Buchsbaum-Rim and Borel-Weil-Bott against the long-exact-sequence
    ranks; the full sweep (no cell bound) runs in CI."""

    def test_sweep_against_the_rank_route(self):
        assert closed_form_sweep(max_cells=50_000) >= 960

    @pytest.fixture
    def rank_calls(self, monkeypatch):
        calls = []
        real = kernelbundle._multiplication_rank

        def spy(*args):
            calls.append(args[1:])
            return real(*args)
        monkeypatch.setattr(kernelbundle, "_multiplication_rank", spy)
        return calls

    def test_closed_routes_rank_nothing(self, rank_calls):
        built = (staircase_presentation(2, 1), sym_euler_presentation(3, 2),
                 random_presentation(2, 1, 5))
        rank_calls.clear()  # the random matrix's exact certificate ranks
        for pres in built:
            assert pres.route != "ranks"
            for t in range(-8, 4):
                kernel_cohomology(pres, t)
        assert rank_calls == []

    def test_sampling_certificate_keeps_the_ranks(self, rank_calls):
        pres = random_presentation(2, 2, 1)
        rank_calls.clear()  # the certificate's seeded line ranks
        assert not pres.surjectivity.exact and pres.route == "ranks"
        assert kernel_cohomology(pres, 0).h == (0, 0, 0)
        assert len(rank_calls) == 2

    def test_hand_built_contraction_keeps_the_ranks(self, rank_calls):
        # the contraction with its rows reversed is certified exactly as
        # kind "sym-euler", but it is not the matrix Borel-Weil-Bott reads
        m = sym_euler_matrix(2, 1)
        pres = KernelBundlePresentation(LinearFormMatrix(2, 1, m.entries[::-1]),
                                        "sym-euler")
        assert pres.surjectivity.exact and pres.route == "ranks"
        assert kernel_cohomology(pres, 0) == kernel_cohomology(sym_euler_presentation(2, 1), 0)
        assert len(rank_calls) == 2

    def test_wrong_chi_is_an_internal_inconsistency(self, monkeypatch):
        monkeypatch.setitem(kernelbundle._CLOSED_TABLES, "buchsbaum-rim",
                            lambda m, t: [1, 0, 0])
        with pytest.raises(InternalInconsistency, match="Riemann-Roch"):
            kernel_cohomology(staircase_presentation(2, 1), 0)


def kernel_chi(kind, n, d, t):
    """b1 chi(O(d+t)) - b2 chi(O(d+1+t)) on P^n, binomials as polynomials."""
    def chi(k):
        return Fraction(prod(range(k + 1, k + n + 1)), prod(range(1, n + 1)))
    b1, b2 = ((comb(n + d + 1, n), comb(n + d, n)) if kind == "--sym"
              else (n + d + 1, d + 1))
    return b1 * chi(d + t) - b2 * chi(d + 1 + t)


def timed_json(argv):
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    return code, json.loads(buf.getvalue()), time.perf_counter() - start


class TestBoundedRequests:
    """Kernel requests that filled dense section maps (a MemoryError under a
    1.5 GB address-space limit, or millions of cells) answer from the
    closed forms; oversized presentations are refused before the build."""

    @pytest.mark.parametrize("argv", [
        "kernel 2 1 --twist -150 --json", "kernel 2 1 --twist 200 --json",
        "kernel 3 2 --sym --twist 6 --json", "kernel 4 3 --sym --json",
    ])
    def test_answers_within_a_bound(self, argv):
        argv = argv.split()
        code, out, elapsed = timed_json(argv)
        assert code == 0 and elapsed < 0.25
        kind = "--sym" if "--sym" in argv else "staircase"
        n, d = int(argv[1]), int(argv[2])
        if "--twist" in argv:
            tables = [(out["twist"], out["table"]["h"])]
        else:
            assert out["lemma"]["passed"]
            tables = [(int(c["twist"][2:-1]) if c["twist"] != "F" else 0, c["h"])
                      for c in out["lemma"]["tables"]]
        for t, h in tables:
            assert sum((-1) ** i * x for i, x in enumerate(h)) == kernel_chi(kind, n, d, t)

    @pytest.mark.parametrize("argv", [
        "kernel 20000 0 --json", "prop61 40 1 --json", "kernel 2 3000 --json",
        "kernel 2 3000 --random 1 --json", "kernel 40 3 --sym --json",
    ])
    def test_oversized_presentation_refused(self, argv):
        code, out, elapsed = timed_json(argv.split())
        assert code == 2 and elapsed < 0.1
        assert out["error"] == "box-too-large"
        assert "presentation coefficients" in out["detail"]

    @pytest.mark.parametrize("twist", [200, -200])
    def test_oversized_rank_route_refused_before_any_fill(self, twist, monkeypatch):
        # a point-sampled certificate keeps the ranks route; twist 200 fills
        # 6.5e9 cells of H^0(alpha), twist -200 as many on the Serre-dual side
        assert random_presentation(2, 2, 1).route == "ranks"

        def no_fill(*args):
            raise AssertionError("section map filled")
        # the certificate ranks its seeded line; only a table may not start
        monkeypatch.setattr(kernelbundle, "_rank_table", no_fill)
        code, out, elapsed = timed_json(
            ["kernel", "2", "2", "--random", "1", "--twist", str(twist), "--json"])
        assert code == 2 and elapsed < 0.1
        assert out["error"] == "box-too-large"
        assert "section map cells" in out["detail"]

    def test_lemma_twists_refused_before_any_fill(self, monkeypatch):
        # the orthogonality conditions of kernel 2 2 rank at twists 0 and -4
        pres = random_presentation(2, 2, 1)
        cells = max(rank_route_cells(pres.matrix, t) for t in (0, -4))
        assert cells == 900

        def no_fill(*args):
            raise AssertionError("section map filled")
        # the certificate ranks its seeded line; only a table may not start
        monkeypatch.setattr(kernelbundle, "_rank_table", no_fill)
        with pytest.raises(BoxTooLarge):
            lemma_conditions_check(pres, cells - 1)
        monkeypatch.setenv("ULRICH_SCAN_CAP", str(cells - 1))
        code, out, _ = timed_json(["kernel", "2", "2", "--random", "1", "--json"])
        assert code == 2 and out["error"] == "box-too-large"
        assert "section map cells" in out["detail"]

    def test_lemma_cap_follows_the_scan_cap(self, monkeypatch):
        argv = ["kernel", "2", "2", "--random", "1", "--json"]
        monkeypatch.setenv("ULRICH_SCAN_CAP", "900")
        code, out, _ = timed_json(argv)
        assert code == 0 and out["lemma"]["passed"]

    def test_rank_route_cap_follows_the_scan_cap(self, monkeypatch):
        argv = ["kernel", "2", "2", "--random", "1", "--twist", "3", "--json"]
        cells = rank_route_cells(random_presentation(2, 2, 1).matrix, 3)
        monkeypatch.setenv("ULRICH_SCAN_CAP", str(cells))
        assert timed_json(argv)[0] == 0
        monkeypatch.setenv("ULRICH_SCAN_CAP", str(cells - 1))
        code, out, _ = timed_json(argv)
        assert code == 2 and out["error"] == "box-too-large"

    @pytest.mark.parametrize("n, d", [(1, 31), (31, 1)])
    def test_oversized_certificate_refused_before_any_fill(self, n, d, monkeypatch):
        # on P^1, and for two target rows, the certificate's section map
        # holds ((b2 + 1) b2)^2 cells with b2 = d + 1 or n + 1: 1115136 here
        def no_fill(*args):
            raise AssertionError("section map filled")
        monkeypatch.setattr(kernelbundle, "_multiplication_rank", no_fill)
        code, out, elapsed = timed_json(
            ["kernel", str(n), str(d), "--random", "1", "--json"])
        assert code == 2 and elapsed < 0.1
        assert out["error"] == "box-too-large"
        assert "certificate section map cells 1115136" in out["detail"]

    @pytest.mark.parametrize("n, d, method", [(1, 30, "binary-minor-gcd"),
                                              (30, 1, "binary-form-resultant")])
    def test_certificate_under_the_cap_answers(self, n, d, method):
        # ((b2 + 1) b2)^2 = 984064 cells, under the default cap of 10^6
        code, out, _ = timed_json(["kernel", str(n), str(d), "--random", "1", "--json"])
        assert code == 0 and out["lemma"]["passed"]
        assert out["presentation"]["surjectivity"]["method"] == method

    def test_certificate_cap_follows_the_scan_cap(self, monkeypatch):
        monkeypatch.setenv("ULRICH_SCAN_CAP", "1115136")
        code, out, _ = timed_json(["kernel", "1", "31", "--random", "1", "--json"])
        assert code == 0 and out["presentation"]["surjectivity"]["exact"]

    def test_prop61_line_box_costs_no_walk(self):
        # the line hits lie in the dead band -n..-1, whatever the box
        def hits_line(box):
            code, out, elapsed = timed_json(["prop61", "3", "1", "--box", str(box),
                                             "--json"])
            assert code == 0
            notes = out["report"]["notes"]
            line = next(note for note in notes if note.startswith("line bundles"))
            return line.split(": ", 1)[1], elapsed

        wide, elapsed = hits_line(100_000_000)
        assert elapsed < 0.5
        assert wide == hits_line(8)[0]


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
        assert [c.label for c in rep.checks] == ["F", "F(-3)"]

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


def reference_prop61(n, d, line_box=8, bound=4):
    """``prop61_builder`` for n >= 3 as it ran while it built its scan:
    each staircase and contraction presentation with parameter <= bound is
    built, chart-certified and given its route, and its zero-chi twists are
    tabulated through ``kernel_cohomology``."""
    for kind in ("staircase", "sym-euler"):
        check_presentation_size(kind, n, bound, None)
    twists = kernelbundle._condition_twists(n, d)
    _, first, last = _zero_interval(ProjSpace(n), ())
    line_hits = [deg for deg in range(max(first, -line_box), min(last, line_box) + 1)
                 if all(first <= deg - s <= last for s in twists)]
    scanned, pres_hits = [], []
    for maker, kind in ((staircase_presentation, "staircase"),
                        (sym_euler_presentation, "sym-euler")):
        for dp in range(bound + 1):
            pres = maker(n, dp)
            assert pres.surjectivity.method == "min-coordinate-triangular"
            assert pres.surjectivity.exact and reference_triangular_charts(pres.matrix)
            assert pres.route == ("buchsbaum-rim" if kind == "staircase" or dp == 0
                                  else "borel-weil-bott")
            shape = kernelbundle._builtin_shape(kind, n, dp)
            assert kernelbundle._builtin_route(shape) == pres.route
            assert shape == (n, dp, pres.matrix.b1, pres.matrix.b2)
            ok, evidence = True, []
            order = sorted([0] + [-s for s in twists],
                           key=lambda t: (comb(n + dp + t, n) if dp + t >= 0 else 0)
                           + (comb(n + dp + 1 + t, n) if dp + 1 + t >= 0 else 0))
            for t in order:
                chi = kernel_chi("staircase" if kind == "staircase" else "--sym", n, dp, t)
                if chi != 0:
                    evidence.append(f"t={t}: chi = {chi}")
                    ok = False
                    break
                table = kernel_cohomology(pres, t)
                evidence.append(f"t={t}: h = {table.h}")
                if not table.is_zero():
                    ok = False
                    break
            scanned.append(f"{kind}(n={n},d={dp}): " + ("hit" if ok else evidence[-1]))
            if ok:
                pres_hits.append(pres)
    notes = (
        f"exact condition set: H(F)=0 and H(F(-s))=0 for s in {list(twists)}",
        f"line bundles O(e), |e| <= {line_box}: hits {line_hits}",
        f"presentations scanned with parameter <= {bound}: "
        f"hits {[str(p) for p in pres_hits]}",
        "discrepancy: a rank-n candidate inside <O(n), O(n+1)> would need "
        "D^b(P^n) = <O(n), O(n+1), ..., O(2n+1)>, a sequence of n+2 "
        "exceptional line bundles where only n+1 fit; the computed "
        "condition set above is what the twist family actually forces, "
        "and no object in the searched class satisfies it",
    )
    report = UlrichReport(candidate="none", polarisation="[1]",
                          verdict=bool(line_hits or pres_hits), checks=(),
                          method="criterion", generic=False,
                          notes=notes + tuple(scanned))
    return kernelbundle.Prop61Result(report, pres_hits[0] if pres_hits else None,
                                     twists)


def _prop61_outcome(build, *args):
    """The JSON of a result, or the type and detail of the error raised."""
    try:
        return json.dumps(build(*args).to_json())
    except BoxTooLarge as err:
        return type(err).__name__, str(err)


def prop61_sweep(ns=range(3, 9), ds=range(1, 5), bounds=range(0, 7)) -> int:
    """The build-free ``prop61_builder`` equals ``reference_prop61`` on every
    (n, d, bound), refusals under the default cap included.  Returns the
    number of inputs compared."""
    compared = 0
    for n, d, bound in itertools.product(ns, ds, bounds):
        expected = _prop61_outcome(reference_prop61, n, d, 8, bound)
        got = _prop61_outcome(prop61_builder, n, d, 8, bound)
        assert got == expected, (n, d, bound)
        compared += 1
    return compared


class TestProp61Scan:
    """For n >= 3 the scan reads shapes alone and contradicts no root count;
    the full ``prop61_sweep`` runs in CI."""

    def test_sweep_slice(self):
        assert prop61_sweep(range(3, 5), range(1, 3), range(0, 5)) == 20

    def test_sweep_refusals(self):
        # sym-euler(8, 6) holds 6435 x 3003 x 9 coefficients, over the cap
        assert prop61_sweep([8], [1], [2, 6]) == 2
        assert isinstance(_prop61_outcome(prop61_builder, 8, 1, 8, 6), tuple)

    def test_no_matrix_is_built(self, monkeypatch):
        def no_build(*args):
            raise AssertionError("matrix built")
        for name in ("staircase_matrix", "sym_euler_matrix", "_triangular_charts"):
            monkeypatch.setattr(kernelbundle, name, no_build)
        for request_line in ("prop61 3 1 --json", "prop61 4 1 --json",
                             "prop61 4 3 --json"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert run(request_line.split()) == 0
            digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
            assert digest == STDOUT_SHA256[request_line]

    def _assert_internal_inconsistency(self, match):
        code, out, _ = timed_json(["prop61", "3", "1", "--json"])
        assert code == 3 and out["error"] == "internal-inconsistency"
        assert match in out["detail"]

    def test_presentation_hit_contradicts_the_root_count(self, monkeypatch):
        monkeypatch.setattr(kernelbundle, "_kernel_chi", lambda m, t: 0)
        for route in ("buchsbaum-rim", "borel-weil-bott"):
            monkeypatch.setitem(kernelbundle._CLOSED_TABLES, route,
                                lambda m, t: [0] * (m.n + 1))
        self._assert_internal_inconsistency(
            "ker(staircase,n=3,d=0) meets the conditions at 4 twists")

    def test_line_hit_contradicts_the_root_count(self, monkeypatch):
        monkeypatch.setattr(kernelbundle, "_zero_interval",
                            lambda v, rest: (False, -100, 100))
        self._assert_internal_inconsistency("O(-8) meets the conditions")


class TestSerialization:
    def test_matrix_round_trip_strings(self):
        m = staircase_matrix(2, 1)
        data = m.to_json()
        rebuilt = LinearFormMatrix(2, 1, tuple(
            tuple(tuple(int(c) for c in entry) for entry in row)
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


# --------------------------------------------------------------------------
# the sparse view against the dense entries
# --------------------------------------------------------------------------

def _substitute_low_zero(entry, j):
    return tuple(0 if v < j else c for v, c in enumerate(entry))


def _is_pure_in(entry, j):
    """The x_j coefficient if the form is c * x_j, else None."""
    if any(c for v, c in enumerate(entry) if v != j):
        return None
    return entry[j] or None


def staircase_rule(m):
    """Chart j of the staircase: columns j..j+b2-1, rows in order."""
    def rule(j):
        cols = list(range(j, j + m.b2))
        if cols[-1] >= m.b1:
            return None, None
        return cols, list(range(m.b2))

    return rule


def sym_euler_rule(m):
    """Chart j of the contraction: row beta against column beta + e_j,
    rows by decreasing beta_j, then by their exponent vectors."""
    rows_idx = monomial_exponents(m.n, m.d)
    cols_idx = {alpha: i for i, alpha in enumerate(monomial_exponents(m.n, m.d + 1))}

    def rule(j):
        order = sorted(range(len(rows_idx)),
                       key=lambda i: (-rows_idx[i][j], rows_idx[i]))
        cols = []
        for i in order:
            beta = rows_idx[i]
            alpha = tuple(b + (1 if v == j else 0) for v, b in enumerate(beta))
            cols.append(cols_idx[alpha])
        return cols, order

    return rule


def dense_triangular(m, column_rule):
    """The triangularity check over all b2^2 cells that a hand-written
    column rule selects, on the dense entries, sharing no code with the
    engine's chart certificate, which finds its columns in the matrix."""
    for j in range(m.n + 1):
        cols, row_order = column_rule(j)
        if cols is None:
            return False
        for pos_r, i in enumerate(row_order):
            for pos_c, c in enumerate(cols):
                entry = _substitute_low_zero(m.entries[i][c], j)
                if pos_r == pos_c:
                    if _is_pure_in(entry, j) is None:
                        return False
                elif pos_r > pos_c and any(entry):
                    return False
    return True


class TestTriangularityAgreement:
    """The chart certificate decides as the dense reference under each
    family's hand-written column rule, and on planted faults."""

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("d", range(0, 6))
    def test_both_rules_on_both_families(self, n, d):
        stair, sym = staircase_matrix(n, d), sym_euler_matrix(n, d)
        assert dense_triangular(stair, staircase_rule(stair))
        assert dense_triangular(sym, sym_euler_rule(sym))
        assert _triangular_charts(stair) and _triangular_charts(sym)

    def test_staircase_rule_rejects_wide_contractions(self):
        m = sym_euler_matrix(2, 1)
        assert not dense_triangular(m, staircase_rule(m))
        assert _triangular_charts(m)

    def test_forms_outside_the_diagonal_columns_are_free(self):
        # chart 0 reads columns 1, 2 and leaves x_1 in column 0, left of row
        # 0's diagonal; chart 1 reads columns 0, 3
        m = LinearFormMatrix(1, 1, (((0, 1), (1, 0), (0, 0), (0, 1)),
                                    ((0, 0), (0, 0), (1, 0), (0, 1))))
        charts = {0: ([1, 2], [0, 1]), 1: ([0, 3], [0, 1])}
        assert dense_triangular(m, charts.get)
        assert _triangular_charts(m)

    # staircase(3, 2): in chart j = 0 the diagonal is (i, i) = x_0, and in
    # chart j = 1 it is (i, i + 1) = x_1 with x_0 substituted by zero
    @pytest.mark.parametrize("cell, form, expected", [
        ((1, 0), (0, 0, 1, 0), False),                # nonzero below the diagonal
        ((2, 1), (0, 0, Fraction(1, 3), 0), False),   # ... with a cleared denominator
        ((2, 0), (5, 0, 0, 0), False),                # ... a multiple of x_0
        ((1, 1), (0, 0, 0, 0), False),                # zero diagonal
        ((0, 0), (1, 1, 0, 0), False),                # foreign variable x_1
        ((2, 3), (0, 1, 0, Fraction(-2, 7)), False),  # foreign variable x_3
        ((0, 1), (1, 1, 0, 0), True),                 # x_0 dies in chart 1
        ((0, 5), (3, 0, 0, 1), True),                 # above every diagonal
    ])
    def test_planted_faults(self, cell, form, expected):
        rows = [list(row) for row in staircase_matrix(3, 2).entries]
        rows[cell[0]][cell[1]] = form
        m = LinearFormMatrix(3, 2, tuple(map(cleared, rows)))
        assert dense_triangular(m, staircase_rule(m)) is expected
        assert _triangular_charts(m) is expected


def reference_triangular_charts(m):
    """The chart certificate as it read each form on every chart, through
    ``any()`` over tuple slices; the engine reads each form's last nonzero
    variable once."""
    for j in range(m.n + 1):
        diagonal = []
        for row in m.int_rows:
            own = next((c for c, f in row.items() if f[j] and not any(f[j + 1:])),
                       None)
            if own is None:
                return False
            diagonal.append(own)
        taken = set(diagonal)
        if len(taken) < len(diagonal):
            return False
        for row, own in zip(m.int_rows, diagonal):
            if any(c < own and c in taken and any(f[j:]) for c, f in row.items()):
                return False
    return True


def _sparse_form(rng, n):
    """Mostly a multiple of one variable, now and then a wider form."""
    if rng.random() < 0.7:
        return _unit(n, rng.randrange(n + 1)) if rng.random() < 0.5 else tuple(
            rng.choice((-2, 1, 3)) * x for x in _unit(n, rng.randrange(n + 1)))
    return tuple(rng.choice((0, 0, 1, -1, 2)) for _ in range(n + 1))


class TestTriangularChartsAgainstTheSliceScan:
    """The last-variable chart certificate decides as the slice scan on
    seeded random, row-permuted and planted non-triangular matrices."""

    def test_seeded_random(self):
        rng = random.Random(2601)
        verdicts = set()
        for _ in range(600):
            n, b2 = rng.randint(1, 4), rng.randint(1, 4)
            b1 = b2 + rng.randint(1, n + 1)
            entries = tuple(tuple(_sparse_form(rng, n) if rng.random() < 0.6
                                  else (0,) * (n + 1) for _ in range(b1))
                            for _ in range(b2))
            m = LinearFormMatrix(n, b2 - 1, entries)
            verdict = reference_triangular_charts(m)
            assert _triangular_charts(m) is verdict, entries
            verdicts.add(verdict)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("build", [staircase_matrix, sym_euler_matrix])
    def test_row_permuted(self, build):
        rng = random.Random(2602)
        for n, d in itertools.product(range(1, 5), range(0, 4)):
            rows = list(build(n, d).entries)
            rng.shuffle(rows)
            m = LinearFormMatrix(n, d, tuple(rows))
            assert _triangular_charts(m) is reference_triangular_charts(m) is True

    @pytest.mark.parametrize("build", [staircase_matrix, sym_euler_matrix])
    def test_planted_faults(self, build):
        rng = random.Random(2603)
        verdicts = set()
        for _ in range(300):
            n, d = rng.randint(1, 4), rng.randint(0, 3)
            rows = [list(row) for row in build(n, d).entries]
            for _ in range(rng.randint(1, 2)):
                row = rng.choice(rows)
                row[rng.randrange(len(row))] = _sparse_form(rng, n)
            m = LinearFormMatrix(n, d, tuple(map(tuple, rows)))
            verdict = reference_triangular_charts(m)
            assert _triangular_charts(m) is verdict, m.entries
            verdicts.add(verdict)
        assert verdicts == {True, False}


def reference_sampling(m):
    """The sampling certificate evaluated through dense sums on the
    entries, its seeded line decided by the symbolic route
    (``reference_share_root``; b2 <= 4 here), not by the engine's."""
    points = list(itertools.product((1, -1), repeat=m.n + 1))
    points += [tuple(int(i == v) for i in range(m.n + 1)) for v in range(m.n + 1)]
    rng = random.Random(7)
    points += [tuple(rng.randint(-17, 17) for _ in range(m.n + 1)) for _ in range(8)]
    for pt in points:
        scalar = [[sum(c * x for c, x in zip(entry, pt)) for entry in row]
                  for row in m.entries]
        if exactlinalg.rank(scalar) < m.b2:
            raise NotSurjective(f"matrix drops rank at point {pt}")
    p = tuple(rng.randint(-9, 9) for _ in range(m.n + 1))
    q = tuple(rng.randint(-9, 9) for _ in range(m.n + 1))
    restricted = [[(sum(c * x for c, x in zip(entry, p)),
                    sum(c * x for c, x in zip(entry, q)))
                   for entry in row] for row in m.entries]
    line_ok = not reference_share_root(restricted)
    detail = ("full rank at sampled points; "
              + ("pencil-restricted minor gcd constant"
                 if line_ok else "pencil restriction inconclusive"))
    return SurjectivityCertificate("point-sampling", False, detail)


def _coefficient(rng):
    return rng.choice((0, rng.randint(-4, 4), rng.randint(-4, 4),
                       Fraction(rng.randint(-9, 9), rng.randint(1, 6))))


def seeded_sampling_matrix(rng, kind):
    """A matrix of a shape that reaches sampling (n >= 2, 3 <= b2 <= 4)
    with rational coefficients drawn and each row then cleared of its
    denominators (``cleared``), and the sign point it was made to drop rank
    at, or None.  Kind "point" drops rank at a sign point.  Kind "factor"
    makes row 0 a multiple of x_0 + 3 x_1 + 9 x_2 (+ 27 x_3), which
    vanishes at no sign or coordinate point, so that every maximal minor
    has that factor."""
    n, b2 = rng.randint(2, 3), rng.randint(3, 4)
    b1 = b2 + rng.randint(1, 2)
    rows = [[tuple(_coefficient(rng) for _ in range(n + 1)) for _ in range(b1)]
            for _ in range(b2)]
    pt = None
    if kind == "point":
        pt = rng.choice(list(itertools.product((1, -1), repeat=n + 1)))
        lam = [rng.randint(-3, 3) for _ in rows[:-1]]
        for c, entry in enumerate(rows[-1]):
            target = sum(lm * sum(x * y for x, y in zip(row[c], pt))
                         for lm, row in zip(lam, rows))
            gap = target - sum(x * y for x, y in zip(entry, pt))
            rows[-1][c] = (entry[0] + gap * pt[0],) + entry[1:]
    elif kind == "factor":
        line = (1, 3, 9, 27)[:n + 1]
        rows[0] = [tuple(k * x for x in line)
                   for k in (rng.choice((1, -2, Fraction(1, 2))) for _ in range(b1))]
    return LinearFormMatrix(n, b2 - 1, tuple(map(cleared, rows))), pt


def _outcome(certify, m):
    try:
        return certify(m).to_json()
    except NotSurjective as err:
        return str(err)


class TestSamplingAgreement:
    KINDS = ("random", "point", "factor")

    def test_same_method_detail_and_message(self):
        rng = random.Random(1212)
        seen = set()
        for i in range(300):
            kind = self.KINDS[i % len(self.KINDS)]
            m, planted = seeded_sampling_matrix(rng, kind)
            expected = _outcome(reference_sampling, m)
            assert _outcome(_certify_sampling, m) == expected, (kind, m.entries)
            if planted is not None and planted[0] == -1:
                # the engine ranks only +1-led sign points; the reference
                # finds this one at its +1-led negation first
                seen.add("planted -1-led")
            if isinstance(expected, str):
                assert expected.startswith("matrix drops rank at point ")
                seen.add("drops")
            else:
                seen.add(expected["detail"])
        assert seen == {
            "drops",
            "planted -1-led",
            "full rank at sampled points; pencil-restricted minor gcd constant",
            "full rank at sampled points; pencil restriction inconclusive",
        }


class TestPresentationTime:
    """Building and certifying reads only the nonzero forms: the
    contraction matrix has n+1 of them per row, not b1."""

    def test_sym_euler_4_6(self):
        start = time.perf_counter()
        p = sym_euler_presentation(4, 6)
        elapsed = time.perf_counter() - start
        assert (p.matrix.b2, p.matrix.b1) == (210, 330) and p.surjectivity.exact
        assert elapsed < 0.4

    def test_prop61_4_1_json(self, capsys):
        assert run(["prop61", "4", "1", "--json"]) == 0
        start = time.perf_counter()
        code = run(["prop61", "4", "1", "--json"])
        elapsed = time.perf_counter() - start
        capsys.readouterr()
        assert code == 0
        assert elapsed < 0.08


# sha256 of stdout, recorded while the presentations were still built and
# certified densely over Fractions
STDOUT_SHA256 = {
    "kernel 2 0 --json":
        "4dc7c2a629e15876f03a64b1f1c30772b548b8b97f3c7f87b63cac47a62a3aff",
    "kernel 2 0 --sym --json":
        "f86c2ad6ec86a9f44f04035dbb863c374524482574fca2ed603a76cd032fb4df",
    "kernel 2 1 --json":
        "8acfbc48e92ada4215ad07dc4641ab41593cc081682642a256c2b6c2c6c099d9",
    "kernel 2 1 --sym --json":
        "481550fd400714aec20786a99cdc88ef46c359ebae3b34d5daf24d5f6f02d442",
    "kernel 2 2 --json":
        "499a2ca56a196fce0ad5ef00eb05b2795accaf739abfa1bb5df0beeedeb5ce8e",
    "kernel 2 2 --sym --json":
        "a69acf1d873af1cbd82315a3b62845723fc163ab23915af5de46c97051d6c871",
    "kernel 2 3 --json":
        "70556a2960dc6584d08990d8b33030faa74ac07deccb0e29d4ed8a27964bf49f",
    "kernel 2 3 --sym --json":
        "4bfe31ea8cba20f48a820fea27f4a9e222f734b624d9868e4ac5022464ef55c8",
    "kernel 3 0 --json":
        "54625b1b493bfece9e6b7b1075eb8ebdb626aaacccfcbfdbc5d29bc51237ceb0",
    "kernel 3 0 --sym --json":
        "e9950bdb2b11a7286ab5ce94da477977dae868ea3b7fe6a768d5654c844d6e0b",
    "kernel 3 1 --json":
        "5ddb699b9bc47e6d697999ae4f9284cfd67c16e62801110348a4cf27929c6dae",
    "kernel 3 1 --sym --json":
        "8eb63d634e2e458d4ae5a617fcfa558a75bd3d5877fd870d4e6c319ebbf28395",
    "kernel 3 2 --json":
        "ff67927df4899bd010631344ba3b665ba3cff2ff2f5eaf28beb2937f56761bdc",
    "kernel 3 2 --sym --json":
        "f20ef99c9b13fd023ec7ea3c7bf2339306f35d75a3b8a98f2b3d6454746a9536",
    "kernel 3 3 --json":
        "85a8e5a0a70707568a12b6f7669e0bcccbd6ec9c2f744dc6b2db18d054852559",
    "kernel 3 3 --sym --json":
        "3fe20a7ee8a69150745960f2a435c7fe90923fb1563062407b49b5c2382f0fd6",
    "kernel 4 0 --json":
        "f718ef073c7b679c4a9c73c4e44af5cfff236e931e37e9ef76b85abdc5bb7dca",
    "kernel 4 0 --sym --json":
        "1304849e38e7d0f33b3943fb36fd77163587e188db71d36d04bafb9dde60c60c",
    "kernel 4 1 --json":
        "a5332c7813eb1989cd1365d0c68efef77240cd17e7eb84d33e00556b2d0a904c",
    "kernel 4 1 --sym --json":
        "a5058d377a560daa048570d8c9fd4fc0c14523ea701c1e71d5f5f1dbe247a508",
    "kernel 4 2 --json":
        "910be9da66b4768b07c387c591a024b40966854de68aa815bf364ad7e03002a5",
    "kernel 4 2 --sym --json":
        "ab30ba530fdacc9c9fd3636de944a4c699b9655e1c2105d9ef94c94425347a4d",
    "kernel 4 3 --json":
        "14678ca8b8970164fa92edca448bcc2e218e43385a6794088df5f0b8bed3297e",
    "prop61 3 1 --json":
        "1cb84c5dbf76bc598257ee7c8008e40f1d2c605db9e8b70f6564565428571a12",
    "prop61 3 2 --json":
        "8382bcdc2bfa9b1562da52aa1d32410492c8027a44d632d01c9ea3c035b8f1ce",
    "prop61 3 3 --json":
        "2303ca7d96995e23c6086e9b8c3cf8cfd59d5483120e1949f9de7f792e97d1f4",
    "prop61 4 1 --json":
        "6d6ef036a4aa94ef85f382aa1bff53b100ae1fc32d80da1480bd1ef232156c7a",
    "prop61 4 2 --json":
        "070f10cba3f2adc1248d5d418cad193995db547930c3a25e199ef5969d135ecd",
    "prop61 4 3 --json":
        "84383a75f86ce8b7e0bc8f7d8f60b08e1e0fa7efacb4f3faa69d18fa4f7e9d6d",
}


@pytest.mark.parametrize("request_line", list(STDOUT_SHA256))
def test_stdout_is_byte_identical(request_line):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run(request_line.split()) == 0
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == STDOUT_SHA256[request_line]
