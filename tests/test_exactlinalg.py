"""Exact rank: the mod-p proof of full rank and the Bareiss fallback."""

import random
from fractions import Fraction

import pytest

from ulrichbundles import exactlinalg
from ulrichbundles.exactlinalg import PRIME, rank


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


def random_matrix(rng, nrows, ncols, fractions, dependent):
    """Random entries, then `dependent` rows replaced by integer combinations
    of the others so the rank is usually below min(nrows, ncols)."""
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
    return rows


@pytest.fixture
def bareiss_calls(monkeypatch):
    """Records the rows handed to the Bareiss fallback."""
    calls = []
    original = exactlinalg._bareiss_rank

    def spy(m):
        calls.append([list(r) for r in m])
        return original(m)

    monkeypatch.setattr(exactlinalg, "_bareiss_rank", spy)
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
        rows = [[2, 4], [1, 2], [Fraction(1, 2), 0]]
        copy = [list(r) for r in rows]
        assert rank(rows) == 2
        assert rows == copy

    def test_entries_beyond_the_prime(self):
        big = 2**70 + 1
        assert rank([[big, 1], [big + 1, 1]]) == 2
        assert rank([[big, 2 * big], [1, 2]]) == 1


class TestModularProof:
    def test_full_rank_skips_bareiss(self, bareiss_calls):
        assert rank([[1, 2, 3], [4, 5, 6]]) == 2
        assert rank([[Fraction(1, 3), 0], [0, Fraction(2, 7)], [1, 1]]) == 2
        assert bareiss_calls == []

    def test_rank_deficient_over_q_reaches_bareiss(self, bareiss_calls):
        assert rank([[1, 2], [2, 4]]) == 1
        assert len(bareiss_calls) == 1

    @pytest.mark.parametrize("rows,expected", [
        ([[PRIME]], 1),
        ([[PRIME, 0], [0, 1]], 2),
        ([[PRIME if i == j else 0 for j in range(4)] for i in range(4)], 4),
        ([[Fraction(PRIME, 2), Fraction(PRIME, 3)]], 1),
        ([[1, 1], [1, 1 + PRIME]], 2),
    ])
    def test_deficient_mod_prime_falls_back(self, bareiss_calls, rows, expected):
        assert reference_rank(rows) == expected
        assert rank(rows) == expected
        assert len(bareiss_calls) == 1

    def test_fallback_gets_cleared_integer_rows(self, bareiss_calls):
        rank([[Fraction(1, 2), Fraction(1, 3)], [0, 0], [3, 2]])
        assert bareiss_calls == [[[3, 2], [3, 2]]]


class TestDegenerate:
    @pytest.mark.parametrize("rows", [
        [], [[]], [[], []], [[0]], [[0, 0, 0], [0, 0, 0]],
        [[Fraction(0), Fraction(0)]],
    ])
    def test_zero_rank(self, rows):
        assert rank(rows) == 0

    def test_zero_rows_do_not_count(self, bareiss_calls):
        assert rank([[0, 0, 0], [0, 5, 0], [0, 0, 0]]) == 1
        assert bareiss_calls == []
