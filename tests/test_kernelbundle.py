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
from ulrichbundles import exactlinalg, kernelbundle
from ulrichbundles.kernelbundle import (
    KernelBundlePresentation,
    LinearFormMatrix,
    SurjectivityCertificate,
    _rank_table,
    _certify_sampling,
    _pencil_minors_share_root,
    _triangular_charts,
    monomial_exponents,
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
    ], ids=["no-rows", "empty-row", "short-forms", "square"])
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
    out = [Fraction(0)] * (len(p) + len(q) - 1)
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
    lowest power first, by Laplace expansion along the first row."""
    if not entries:
        return [Fraction(1)]
    total = [Fraction(0)] * (len(entries) + 1)
    for j, (c, e) in enumerate(entries[0]):
        if not c and not e:
            continue
        minor = [row[:j] + row[j + 1:] for row in entries[1:]]
        for i, v in enumerate(_poly_mul([Fraction(c), Fraction(e)], _laplace_det(minor))):
            total[i] += -v if j % 2 else v
    return total


def _euclid_gcd(a, b):
    while b:
        while len(a) >= len(b):
            f = a[-1] / b[-1]
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


def integer_pencil(pencil):
    """Each row times the lcm of its denominators: every maximal minor is
    scaled by a nonzero constant, so a shared root stays or stays absent."""
    out = []
    for row in pencil:
        denom = lcm(*(Fraction(x).denominator for entry in row for x in entry))
        out.append([(int(c * denom), int(e * denom)) for c, e in row])
    return out


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


class TestPencilMinors:
    KINDS = ("random", "random", "finite", "infinity", "zero-row", "single")

    def test_agrees_with_symbolic_route(self):
        rng = random.Random(2024)
        seen = set()
        for i in range(1200):
            kind = self.KINDS[i % len(self.KINDS)]
            pencil = seeded_pencil(rng, kind)
            expected = reference_share_root(pencil)
            assert _pencil_minors_share_root(integer_pencil(pencil)) == expected, \
                (kind, pencil)
            if kind != "random":
                assert expected, (kind, pencil)
            seen.add((kind, expected))
        assert ("random", False) in seen and ("random", True) in seen

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
        assert _pencil_minors_share_root(pencil) == shared


class TestPencilCertificateTime:
    """The pencil certificates cost polynomial time: numeric minors and one
    exact rank, where a symbolic Laplace expansion costs factorial time."""

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
    PRIME makes every rank vanish mod PRIME, so the exact fallback runs.
    The staircase takes the Buchsbaum-Rim table, so the rank route is also
    called directly."""

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
        assert _rank_table(pres, t).h == kernel_cohomology(base, t).h
        assert pres.h0_certificates[t] == base.h0_certificates[t]
        assert kernel_cohomology(pres, t).h == kernel_cohomology(base, t).h


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
        for pres in (staircase_presentation(2, 1), sym_euler_presentation(3, 2),
                     random_presentation(2, 1, 5)):
            assert pres.route != "ranks"
            for t in range(-8, 4):
                kernel_cohomology(pres, t)
        assert rank_calls == []

    def test_sampling_certificate_keeps_the_ranks(self, rank_calls):
        pres = random_presentation(2, 2, 1)
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
        monkeypatch.setattr(kernelbundle, "_multiplication_rank", no_fill)
        code, out, elapsed = timed_json(
            ["kernel", "2", "2", "--random", "1", "--twist", str(twist), "--json"])
        assert code == 2 and elapsed < 0.1
        assert out["error"] == "box-too-large"
        assert "section map cells" in out["detail"]

    def test_rank_route_cap_follows_the_scan_cap(self, monkeypatch):
        argv = ["kernel", "2", "2", "--random", "1", "--twist", "3", "--json"]
        cells = rank_route_cells(random_presentation(2, 2, 1).matrix, 3)
        monkeypatch.setenv("ULRICH_SCAN_CAP", str(cells))
        assert timed_json(argv)[0] == 0
        monkeypatch.setenv("ULRICH_SCAN_CAP", str(cells - 1))
        code, out, _ = timed_json(argv)
        assert code == 2 and out["error"] == "box-too-large"

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


# --------------------------------------------------------------------------
# the integer view against the Fraction entries
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
    column rule selects, on the Fraction entries, sharing no code with the
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
        ((2, 1), (0, 0, Fraction(1, 3), 0), False),   # ... with a denominator
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
        m = LinearFormMatrix(3, 2, tuple(map(tuple, rows)))
        assert dense_triangular(m, staircase_rule(m)) is expected
        assert _triangular_charts(m) is expected


def reference_sampling(m):
    """The sampling certificate evaluated through Fraction sums on the
    entries.  The restricted line's denominators are cleared here; the root
    test itself is checked against the symbolic route above."""
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
    line_ok = not _pencil_minors_share_root(integer_pencil(restricted))
    detail = ("full rank at sampled points; "
              + ("pencil-restricted minor gcd constant"
                 if line_ok else "pencil restriction inconclusive"))
    return SurjectivityCertificate("point-sampling", False, detail)


def _coefficient(rng):
    return rng.choice((0, rng.randint(-4, 4), rng.randint(-4, 4),
                       Fraction(rng.randint(-9, 9), rng.randint(1, 6))))


def seeded_sampling_matrix(rng, kind):
    """A matrix of a shape that reaches sampling (n >= 2, 3 <= b2 <= 4)
    with Fraction coefficients.  Kind "point" drops rank at a sign point.
    Kind "factor" makes row 0 a multiple of x_0 + 3 x_1 + 9 x_2 (+ 27 x_3),
    which vanishes at no sign or coordinate point, so that every maximal
    minor has that factor."""
    n, b2 = rng.randint(2, 3), rng.randint(3, 4)
    b1 = b2 + rng.randint(1, 2)
    rows = [[tuple(_coefficient(rng) for _ in range(n + 1)) for _ in range(b1)]
            for _ in range(b2)]
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
    return LinearFormMatrix(n, b2 - 1, tuple(map(tuple, rows)))


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
            m = seeded_sampling_matrix(rng, kind)
            expected = _outcome(reference_sampling, m)
            assert _outcome(_certify_sampling, m) == expected, (kind, m.entries)
            if isinstance(expected, str):
                assert expected.startswith("matrix drops rank at point ")
                seen.add("drops")
            else:
                seen.add(expected["detail"])
        assert seen == {
            "drops",
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
