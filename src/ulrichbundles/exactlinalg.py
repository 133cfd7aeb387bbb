"""Exact linear algebra helpers: exact rank, and small fraction-free
integer solves.  Every input and every result is an integer.

Rank is exact over the rationals and never uses floating point.  Its
input is an integer matrix: a rational one has the same rank once each
row is scaled by the lcm of its denominators.  The rank is first taken
modulo the fixed prime ``PRIME`` by sparse row elimination.  Reduction
mod p is a ring homomorphism, so a nonzero minor mod p is a nonzero
integer minor: when the rank mod p reaches min(nonzero rows, columns),
that bound is the exact rank.  Only when it falls short does Bareiss
(fraction-free Gaussian) elimination run over the integers, where every
intermediate value is a minor of the input and all divisions are exact.
That one elimination (``_bareiss``) also gives square solves, scaled by
the determinant so that they stay integers.

``PRIME`` is 32749, the largest prime below 2^15, so every residue and
every product of two residues fits in one 30-bit CPython digit and the
elimination's arithmetic stays single-digit.  A smaller prime divides a
nonzero minor more often; that costs only a Bareiss run, never an answer.
"""

from __future__ import annotations

from itertools import compress

PRIME = 32749


def _sparse_integer_rows(rows) -> list:
    """The nonzero rows as (columns, values) pairs."""
    out = []
    for row in rows:
        cols = list(compress(range(len(row)), row))
        if cols:
            out.append((cols, [row[c] for c in cols]))
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


def _bareiss(m, ncols: int, full: bool = False) -> tuple:
    """Fraction-free (Bareiss) forward elimination of dense integer rows,
    in place, pivoting in the first ``ncols`` columns; any later columns
    (right-hand sides) are carried along.  Returns the rank and the last
    pivot.  With ``full`` it stops at the first column without a pivot,
    where the rank is known to fall short of ``ncols``.

    Every entry below the pivot rows is a minor of the row-permuted input,
    so each division by the previous pivot is exact.  At full rank of a
    square block the last pivot is its determinant up to sign.
    """
    nrows = len(m)
    rk, prev = 0, 1
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
            if full:
                break
            continue
        if piv_row != rk:
            m[rk], m[piv_row] = m[piv_row], m[rk]
        pivot_row = m[rk]
        piv = pivot_row[col]
        width = len(pivot_row)
        for i in range(rk + 1, nrows):
            row = m[i]
            factor = row[col]
            if factor:
                for j in range(col + 1, width):
                    row[j] = (piv * row[j] - factor * pivot_row[j]) // prev
                row[col] = 0
            elif prev != 1 or piv != 1:
                for j in range(col + 1, width):
                    row[j] = piv * row[j] // prev
        prev = piv
        rk += 1
    return rk, prev


def rank(rows) -> int:
    """Exact rank of a matrix with integer entries; a nonzero entry of any
    other type (a Fraction, a float) raises TypeError."""
    m = _sparse_integer_rows(rows)
    if not m:
        return 0
    kinds = set()
    for _, vals in m:
        kinds.update(map(type, vals))
    other = sorted(kind.__name__ for kind in kinds if not issubclass(kind, int))
    if other:
        raise TypeError(f"rank takes integer entries, got {', '.join(other)}")
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
    return _bareiss(dense, ncols)[0]


def solve_square(matrix, rhs):
    """``(d, x)`` with d = |det matrix| > 0 and matrix * x = d * rhs, for an
    n x n integer matrix and an n x k integer ``rhs`` (k right-hand sides
    as columns); None if the matrix is singular.

    One elimination (``_bareiss``) of the matrix with every right-hand
    side carried along, stopped at the first column without a pivot, then
    integer back substitution of all k columns at once: the last pivot is
    +-det, so d times the solution is an integer matrix by Cramer's rule
    and every division is exact.  Used for hyperplane-arrangement
    vertices, so dimensions stay tiny.  The inputs are not modified.
    """
    n = len(matrix)
    m = [[*row, *b] for row, b in zip(matrix, rhs)]
    rk, det = _bareiss(m, n, full=True)
    if rk < n:
        return None
    d = abs(det)
    # x[i] = d * (row i of the solution), from the last row up
    x = [None] * n
    for i in range(n - 1, -1, -1):
        row = m[i]
        acc = [d * v for v in row[n:]]
        for j in range(i + 1, n):
            if row[j]:
                acc = [a - row[j] * v for a, v in zip(acc, x[j])]
        x[i] = [a // row[i] for a in acc]
    return d, x
