"""Exact rank (the mod-p proof of full rank and the Bareiss fallback) and
the fraction-free square solve."""

import random
from fractions import Fraction
from math import isqrt, lcm

import pytest

from ulrichbundles import exactlinalg
from ulrichbundles.exactlinalg import PRIME, rank, solve_square


def reference_rank(rows) -> int:
    """Gauss-Jordan over the rationals, sharing no code with the engine."""
    m = [[Fraction(x) for x in row] for row in rows]
    rk = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(rk, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        lead = m[rk][col]
        m[rk] = [x / lead for x in m[rk]]
        for i in range(len(m)):
            if i != rk and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rk])]
        rk += 1
    return rk


def cleared(row) -> list:
    """The row times the lcm of its denominators: integer entries, and the
    same rank in any matrix that holds the row."""
    denom = lcm(*(Fraction(x).denominator for x in row))
    return [int(x * denom) for x in row]


def random_matrix(rng, nrows, ncols, fractions, dependent):
    """Random entries, then `dependent` rows replaced by integer combinations
    of the others so the rank is usually below min(nrows, ncols).  With
    ``fractions`` the entries are drawn rational and each row is cleared of
    its denominators (``cleared``) at the end, as ``rank`` takes integers."""
    def entry():
        x = rng.choice((0, 0, 0, rng.randint(-9, 9), rng.randint(-10**6, 10**6)))
        return Fraction(x, rng.randint(1, 12)) if fractions else x

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    for i in rng.sample(range(nrows), min(dependent, nrows - 1)):
        others = [r for j, r in enumerate(rows) if j != i]
        picks = rng.sample(others, min(2, len(others)))
        coeffs = [rng.randint(-3, 3) for _ in picks]
        rows[i] = [sum(c * r[k] for c, r in zip(coeffs, picks))
                   for k in range(ncols)]
    return [cleared(row) for row in rows] if fractions else rows


def rank_sweep(seeds) -> int:
    """Check ``rank`` against ``reference_rank`` on 20 seeded matrices per
    seed; returns how many were checked.

    Each matrix starts from ``random_matrix`` (integer entries, or rational
    ones with each row's denominators cleared; some rows integer
    combinations of others).  Then each row may be
    scaled by PRIME, made congruent modulo PRIME to another row while
    differing from it over Q, or given entries beyond PRIME.  So the
    mod-p proof falls short on many matrices, and the Bareiss fallback
    decides there."""
    checked = 0
    for seed in seeds:
        rng = random.Random(f"rank/{seed}")
        for _ in range(20):
            nrows, ncols = rng.randint(1, 10), rng.randint(1, 10)
            rows = random_matrix(rng, nrows, ncols, fractions=rng.random() < 0.3,
                                 dependent=rng.randint(0, 3))
            for i in range(nrows):
                change = rng.choice(("keep", "scale", "congruent", "beyond"))
                if change == "scale":
                    rows[i] = [PRIME * x for x in rows[i]]
                elif change == "congruent" and nrows > 1:
                    j = rng.choice([j for j in range(nrows) if j != i])
                    rows[i] = [x + PRIME * rng.randint(-3, 3) for x in rows[j]]
                elif change == "beyond":
                    rows[i] = [x + PRIME * rng.randint(1, 10**6) if rng.random() < 0.5
                               else x for x in rows[i]]
            assert rank(rows) == reference_rank(rows), (seed, rows)
            checked += 1
    return checked


@pytest.fixture
def bareiss_calls(monkeypatch):
    """Records the rows handed to the Bareiss fallback."""
    calls = []
    original = exactlinalg._bareiss

    def spy(m, ncols):
        calls.append([list(r) for r in m])
        return original(m, ncols)

    monkeypatch.setattr(exactlinalg, "_bareiss", spy)
    return calls


class TestAgainstReference:
    @pytest.mark.parametrize("fractions", [False, True])
    def test_random_matrices(self, fractions):
        rng = random.Random(20 + fractions)
        for _ in range(150):
            nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
            rows = random_matrix(rng, nrows, ncols, fractions,
                                 dependent=rng.randint(0, 4))
            assert rank(rows) == reference_rank(rows), rows

    def test_input_is_not_modified(self):
        rows = [[2, 4], [1, 2], [1, 0]]
        copy = [list(r) for r in rows]
        assert rank(rows) == 2
        assert rows == copy

    def test_entries_beyond_the_prime(self):
        big = 2**70 + 1
        assert rank([[big, 1], [big + 1, 1]]) == 2
        assert rank([[big, 2 * big], [1, 2]]) == 1


class TestModularProof:
    def test_prime_fits_one_digit(self):
        # prime by trial division, and a product of two residues fits in
        # one 30-bit CPython digit
        assert PRIME > 2 and all(PRIME % q for q in range(2, isqrt(PRIME) + 1))
        assert PRIME**2 < 2**30

    def test_rank_sweep_takes_both_routes(self, bareiss_calls):
        # CI runs seeds 1-100
        checked = rank_sweep(range(1, 4))
        assert checked == 60
        assert 0 < len(bareiss_calls) < checked

    def test_full_rank_skips_bareiss(self, bareiss_calls):
        assert rank([[1, 2, 3], [4, 5, 6]]) == 2
        assert rank([[3, 0], [0, 7], [1, 1]]) == 2
        assert bareiss_calls == []

    def test_rank_deficient_over_q_reaches_bareiss(self, bareiss_calls):
        assert rank([[1, 2], [2, 4]]) == 1
        assert len(bareiss_calls) == 1

    @pytest.mark.parametrize("rows,expected", [
        ([[PRIME]], 1),
        ([[PRIME, 0], [0, 1]], 2),
        ([[PRIME if i == j else 0 for j in range(4)] for i in range(4)], 4),
        ([[3 * PRIME, 2 * PRIME]], 1),
        ([[1, 1], [1, 1 + PRIME]], 2),
    ])
    def test_deficient_mod_prime_falls_back(self, bareiss_calls, rows, expected):
        assert reference_rank(rows) == expected
        assert rank(rows) == expected
        assert len(bareiss_calls) == 1


class TestDegenerate:
    @pytest.mark.parametrize("rows", [
        [], [[]], [[], []], [[0]], [[0, 0, 0], [0, 0, 0]],
        [[0], [0]],
    ])
    def test_zero_rank(self, rows):
        assert rank(rows) == 0

    def test_zero_rows_do_not_count(self, bareiss_calls):
        assert rank([[0, 0, 0], [0, 5, 0], [0, 0, 0]]) == 1
        assert bareiss_calls == []

    @pytest.mark.parametrize("rows, kind", [
        ([[Fraction(1, 2), 1]], "Fraction"),
        ([[0.5, 1]], "float"),
        # 0 mod PRIME, so the modular route would drop it: Bareiss must
        # not take it either
        ([[float(PRIME)]], "float"),
        ([[Fraction(PRIME), 0], [0, 1]], "Fraction"),
    ])
    def test_non_integer_entries_refused_by_name(self, bareiss_calls, rows, kind):
        with pytest.raises(TypeError, match=f"^rank takes integer entries, got {kind}$"):
            rank(rows)
        assert bareiss_calls == []


def reference_solve(matrix, rhs):
    """``(solution or None, determinant)`` by Gauss-Jordan over the
    rationals, sharing no code with the engine."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col]), None)
        if piv is None:
            return None, 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        lead = m[col][col]
        det *= lead
        m[col] = [x / lead for x in m[col]]
        for i in range(n):
            if i != col and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return [row[n] for row in m], det


def random_system(rng, n):
    """Small entries, half of them zero, so leading pivots often vanish;
    about one in four systems made singular by a dependent row."""
    matrix = [[rng.choice((0, 0, 0, rng.randint(-5, 5), rng.randint(-99, 99)))
               for _ in range(n)] for _ in range(n)]
    if n > 1 and rng.random() < 0.25:
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        matrix[i] = [c * x for x in matrix[j]]
    return matrix, [rng.randint(-50, 50) for _ in range(n)]


def column(rhs) -> list:
    """A right-hand side as the n x 1 matrix that ``solve_square`` takes."""
    return [[b] for b in rhs]


def as_fractions(solved):
    """The solution x / d of ``solve_square``'s ``(d, x)``, row by row,
    after checking that d is a positive int and every entry of x an int."""
    d, x = solved
    assert type(d) is int and d > 0
    assert all(type(v) is int for row in x for v in row)
    return [[Fraction(v, d) for v in row] for row in x]


class TestSolveSquare:
    def test_random_systems(self):
        rng = random.Random(31)
        kinds = set()
        for _ in range(600):
            n = rng.randint(1, 8)
            matrix, rhs = random_system(rng, n)
            copy = ([list(r) for r in matrix], list(rhs))
            expected, det_expected = reference_solve(matrix, rhs)
            solved = solve_square(matrix, column(rhs))
            if expected is None:
                assert solved is None, (matrix, rhs)
            else:
                assert solved[0] == abs(det_expected), (matrix, rhs)
                assert as_fractions(solved) == column(expected), (matrix, rhs)
            assert (matrix, rhs) == copy
            kinds.add("singular" if det_expected == 0
                      else "negative" if det_expected < 0 else "positive")
            if det_expected and matrix[0][0] == 0:
                kinds.add("swap")
        assert kinds == {"singular", "negative", "positive", "swap"}

    @pytest.mark.parametrize("matrix, rhs, expected", [
        ([[3]], [2], [Fraction(2, 3)]),
        ([[-4]], [6], [Fraction(-3, 2)]),
        ([[0, 1], [1, 0]], [5, 7], [7, 5]),  # det -1, the first pivot is zero
        ([[0, 0, 2], [0, 3, 1], [5, 1, 1]], [2, 4, 7], [1, 1, 1]),
        ([[0]], [1], None),
        ([[1, 2], [2, 4]], [1, 2], None),
        ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], [0, 0, 0], None),
    ])
    def test_examples(self, matrix, rhs, expected):
        assert reference_solve(matrix, rhs)[0] == expected
        solved = solve_square(matrix, column(rhs))
        if expected is None:
            assert solved is None
        else:
            assert as_fractions(solved) == column(expected)

    def test_several_right_hand_sides(self):
        # each column is solved as if alone, and unit columns give d * A^-1,
        # with A (d * A^-1) = d I
        rng = random.Random(32)
        solved_systems = 0
        for _ in range(300):
            n = rng.randint(1, 6)
            matrix, _ = random_system(rng, n)
            k = rng.randint(1, 4)
            rhs = [[rng.randint(-50, 50) for _ in range(k)] for _ in range(n)]
            units = [[int(i == j) for j in range(n)] for i in range(n)]
            expected = [reference_solve(matrix, col)[0] for col in zip(*rhs)]
            solved = solve_square(matrix, [r + u for r, u in zip(rhs, units)])
            if expected[0] is None:
                assert solved is None
                continue
            d, x = solved
            assert [list(col) for col in zip(*as_fractions(solved))][:k] == expected
            inverse = [row[k:] for row in x]
            assert [[sum(a * inverse[l][j] for l, a in enumerate(row)) for j in range(n)]
                    for row in matrix] == [[d * u for u in unit] for unit in units]
            solved_systems += 1
        assert solved_systems > 50

    def test_tuples_in_integers_out(self):
        assert solve_square(((2, 1), (1, 3)), ((1,), (2,))) == (5, [[1], [3]])
        assert solve_square(((0, 1), (1, 0)), ((1, 0), (0, 1))) == (1, [[0, 1], [1, 0]])
