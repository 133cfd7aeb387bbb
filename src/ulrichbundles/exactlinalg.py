"""Exact linear algebra helpers: exact rank, small fraction-free integer
solves, and binary-form gcd.

Rank is exact and never uses floating point.  After clearing
denominators, the rank is first taken modulo the fixed prime ``PRIME`` by
sparse row elimination.  Reduction mod p is a ring homomorphism, so a
nonzero minor mod p is a nonzero integer minor: when the rank mod p
reaches min(nonzero rows, columns), that bound is the exact rank.  Only
when it falls short does Bareiss (fraction-free Gaussian) elimination run
over the integers, where every intermediate value is a minor of the input
and all divisions are exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import lcm

PRIME = 2**31 - 1


def _sparse_integer_rows(rows) -> list:
    """The nonzero rows as (columns, integer values) pairs.

    Only the nonzero entries are type-tested; a row holding a Fraction is
    scaled by the lcm of its denominators (row scaling preserves rank).
    """
    out = []
    for row in rows:
        cols = list(compress(range(len(row)), row))
        if not cols:
            continue
        vals = [row[c] for c in cols]
        if Fraction in set(map(type, vals)):
            denom = lcm(*(v.denominator for v in vals))
            vals = [v.numerator * (denom // v.denominator) for v in vals]
        out.append((cols, vals))
    return out


def _rank_mod_prime(rows, target: int) -> int:
    """Rank mod PRIME of sparse integer rows, by row elimination.

    Each row becomes a {column: value mod p} dict and is reduced against
    the stored pivot rows, which are monic and keyed by leading column.
    Stops once the rank reaches ``target`` or can no longer reach it.
    """
    pivots = {}
    left = len(rows)
    for cols, vals in rows:
        left -= 1
        vec = {c: r for c, v in zip(cols, vals) if (r := v % PRIME)}
        while vec:
            lead = min(vec)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(vec[lead], -1, PRIME)
                pivots[lead] = {c: v * inv % PRIME for c, v in vec.items()}
                break
            f = vec[lead]
            for c, v in pivot.items():
                r = (vec.get(c, 0) - f * v) % PRIME
                if r:
                    vec[c] = r
                else:
                    del vec[c]
        if len(pivots) == target or len(pivots) + left < target:
            break
    return len(pivots)


def _bareiss_rank(m) -> int:
    """Rank of nonzero dense integer rows by Bareiss elimination (mutates m)."""
    nrows, ncols = len(m), len(m[0])
    rk = 0
    prev = 1
    for col in range(ncols):
        if rk == nrows:
            break
        # smallest nonzero pivot keeps the Bareiss intermediates small
        piv_row = None
        for i in range(rk, nrows):
            v = m[i][col]
            if v and (piv_row is None or abs(v) < abs(m[piv_row][col])):
                piv_row = i
        if piv_row is None:
            continue
        if piv_row != rk:
            m[rk], m[piv_row] = m[piv_row], m[rk]
        piv = m[rk][col]
        pivot_row = m[rk]
        for i in range(rk + 1, nrows):
            row = m[i]
            factor = row[col]
            if factor:
                for j in range(col + 1, ncols):
                    row[j] = (piv * row[j] - factor * pivot_row[j]) // prev
                row[col] = 0
            elif prev != 1 or piv != 1:
                for j in range(col + 1, ncols):
                    row[j] = piv * row[j] // prev
        prev = piv
        rk += 1
    return rk


def rank(rows) -> int:
    """Exact rank of a matrix with integer or Fraction entries."""
    m = _sparse_integer_rows(rows)
    if not m:
        return 0
    ncols = len(rows[0])
    bound = min(len(m), ncols)
    if _rank_mod_prime(m, bound) == bound:
        return bound
    dense = []
    for cols, vals in m:
        row = [0] * ncols
        for c, v in zip(cols, vals):
            row[c] = v
        dense.append(row)
    return _bareiss_rank(dense)


def solve_square(matrix, rhs):
    """Solve a small square integer system exactly; None if singular.

    One Bareiss elimination of the augmented integer matrix, then integer
    back substitution: the last pivot d is +-det, and d * x is an integer
    vector by Cramer's rule, so every division is exact and only the
    returned entries are Fractions.  Used for hyperplane-arrangement
    vertices, so dimensions stay tiny.  The input is not modified.
    """
    n = len(matrix)
    m = [[*row, b] for row, b in zip(matrix, rhs)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return None
        m[k], m[piv] = m[piv], m[k]
        pivot_row = m[k]
        p = pivot_row[k]
        for row in m[k + 1:]:
            f = row[k]
            for j in range(k + 1, n + 1):
                row[j] = (p * row[j] - f * pivot_row[j]) // prev
        prev = p
    # scaled[i] = prev * x_i, solved from the last row up
    scaled = [0] * n
    for i in range(n - 1, -1, -1):
        row = m[i]
        total = prev * row[n] - sum(row[j] * scaled[j] for j in range(i + 1, n))
        scaled[i] = total // row[i]
    return [Fraction(x, prev) for x in scaled]


# --------------------------------------------------------------------------
# univariate / binary-form utilities (surjectivity certificates)
# --------------------------------------------------------------------------

def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return out


def poly_trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def poly_gcd(p, q):
    """Monic gcd of univariate rational polynomials (coeff lists, low first)."""
    a = poly_trim([Fraction(x) for x in p])
    b = poly_trim([Fraction(x) for x in q])
    while b:
        # remainder of a by b
        a = a[:]
        while len(a) >= len(b) and a:
            f = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= f * c
            poly_trim(a)
        a, b = b, a
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def binary_det(entries):
    """Determinant of a square matrix whose entries are binary linear forms
    c*v0 + d*v1, given as pairs (c, d).  Returns the coefficient list of the
    resulting form in v1 (degree = matrix size), lowest power first."""
    n = len(entries)
    if n == 0:
        return [Fraction(1)]
    if n == 1:
        c, d = entries[0][0]
        return [Fraction(c), Fraction(d)]
    total = [Fraction(0)] * (n + 1)
    for j in range(n):
        c, d = entries[0][j]
        if not c and not d:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in entries[1:]]
        sub = binary_det(minor)
        term = poly_mul([Fraction(c), Fraction(d)], sub)
        sign = -1 if j % 2 else 1
        for i, v in enumerate(term):
            total[i] += sign * v
    return total
