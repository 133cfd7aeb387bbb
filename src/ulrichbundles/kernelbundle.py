"""Kernel bundles on P^n presented by matrices of linear forms.

A surjective map alpha: O(d)^{b1} -> O(d+1)^{b2} of sheaves on P^n has a
locally free kernel F of rank b1 - b2 sitting inside the exceptional pair
(O(d), O(d+1)).  Two explicit constructions are provided:

* the staircase matrix, (d+1) x (n+d+1), row i = (0^i, x_0..x_n, 0^(d-i)),
  whose kernel has rank n (for d = 0 this is the Euler presentation of
  the twisted cotangent bundle Omega(1)),
* the contraction of Sym^(d+1) of the Euler sequence with the Euler
  vector field, C(n+d,n) x C(n+d+1,n), whose kernel has rank C(n+d,n-1).

Both satisfy the balance (d+1) b1 = (n+d+1) b2, making the section-level
map H^0(alpha) square; its bijectivity plus the vanishing of the twists
H^*(F(-d-k)) for k = 2..n are exactly the conditions for F(d+2) to be an
Ulrich bundle on P^2 (w.r.t. O(d+2)), and feed the rank-n construction on
P(O(1) + O^d) over P^2.

Over P^n with n >= 3 that construction asks chi(F(t)) = 0 at 2n - 2
distinct twists, while chi(F(t)) is a polynomial in t of degree n with
leading coefficient rank/n! > 0, so it has at most n roots: by this
Riemann-Roch root count no bundle qualifies.  ``prop61_builder`` still
scans its search class, but from each kernel's shape (n, d, b1, b2)
alone, through the closed tables below and Riemann-Roch chi, so it builds
no matrix; a hit would contradict the root count and is an internal
inconsistency.

Tables of twists F(t) come from one of three routes, chosen once per
presentation (``KernelBundlePresentation.route``):

* ``buchsbaum-rim`` when surjectivity is certified exactly and b1 = b2 + n
  (every staircase, every exactly certified random matrix, the contraction
  with d = 0).  The cokernel M of S(-1)^b1 -> S^b2 then has finite length
  and the Buchsbaum-Rim complex resolves it (Buchsbaum-Rim, "A generalized
  Koszul complex II", 1964; Eisenbud, *Commutative Algebra*, A2.6), so
  the table is a sum of binomials that does not depend on the matrix.
* ``borel-weil-bott`` when the matrix is the contraction that
  ``sym_euler_matrix`` builds, read off the matrix itself: its kernel
  twisted by t is Sym^(d+1)(Omega(1)) (d+t), an irreducible homogeneous
  bundle (Bott, "Homogeneous vector bundles", 1957).
* ``ranks`` for every other matrix, heuristic certificates included: the
  long exact sequence with exact section-map ranks.  If such a map is not
  onto, the ranks still give h^0 and no closed form is right.

Each closed table is checked against the Euler characteristic
b1 chi(O(d+t)) - b2 chi(O(d+1+t)), which shares no code with it.

All ranks are exact over the rationals: ``exactlinalg.rank`` proves them
by full rank modulo a fixed one-digit prime and falls back to
fraction-free (Bareiss) elimination only when that fails.  Surjectivity
of the sheaf map is certified exactly where possible (see
``_certify_surjective``) and honestly marked heuristic otherwise.  Both
constructions are certified by one check: on each chart of P^n it reads
a triangular maximal minor off the matrix itself, so it needs no
per-construction column rule and any row order works.  Every other exact
certificate (one target row, P^1, two target rows) and the seeded line of
the heuristic one is one section-map rank (``_sections_onto``) from degree
rows - 1, read off the rows it is given: a map onto at every point of P^1
has a split kernel whose H^1 vanishes from there on.  Its cells are
checked against the scan cap before the map is filled.

Every matrix has integer coefficients and goes through one constructor,
which derives one sparse view of it: per row, the nonzero forms.  The
certificates and the section-map ranks read only that view, so their work
follows the nonzeros ((n+1) per row of the contraction matrix), not the
b2 x b1 grid.  The contraction matrix is built once per (n, d).  Row
scaling changes no rank, root or zero pattern, so a matrix with rational
coefficients is given with each row's denominators cleared.
"""

from __future__ import annotations

import itertools
import random as _random
from dataclasses import InitVar, dataclass, field, replace
from functools import lru_cache
from math import comb, prod
from operator import mul
from types import MappingProxyType
from typing import NamedTuple

from . import exactlinalg
from .cohomology import (
    CohomologyTable,
    _check_cap,
    _line_chi,
    _proj_space_line,
    _zero_interval,
    pushforward_table,
)
from .errors import InternalInconsistency, NotSurjective, UnsupportedVariety
from .picard import DivisorClass, ProjBundle, ProjSpace, SplitBundle
from .ulrich import UlrichReport, _checks, direct_ulrich_check


# --------------------------------------------------------------------------
# matrices of linear forms
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearFormMatrix:
    """A b2 x b1 matrix of linear forms in x_0..x_n with integer
    coefficients, presenting a map O(d)^{b1} -> O(d+1)^{b2}.

    Each entry is a coefficient tuple of length n+1 whose coefficients are
    ``int``s; anything else is refused.  ``int_rows`` is the matrix's
    sparse view, derived once: per row, a read-only mapping from each
    column whose form is nonzero to that form, as given.  The certificates
    and ranks read only this view.  A matrix with rational coefficients
    presents the same map once each row is scaled by the lcm of its
    denominators, which keeps it surjective at every point, every maximal
    minor up to a nonzero constant and every section-map rank.
    """

    n: int
    d: int
    entries: tuple  # rows (b2 of them), each a tuple of b1 coefficient tuples
    int_rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple(map(tuple, self.entries))
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "int_rows", tuple(
            MappingProxyType(dict(itertools.compress(enumerate(row), map(any, row))))
            for row in rows))
        if self.n < 1 or self.d < 0:
            raise UnsupportedVariety(f"need n >= 1, d >= 0; got ({self.n}, {self.d})")
        if not rows or not rows[0]:
            raise UnsupportedVariety("empty matrix")
        forms = set().union(*rows)
        if set(map(len, forms)) - {self.n + 1}:
            raise UnsupportedVariety("entries must have n+1 coefficients")
        if set(map(type, itertools.chain.from_iterable(forms))) - {int}:
            raise UnsupportedVariety("coefficients must be integers")
        if self.b1 <= self.b2:
            raise UnsupportedVariety("need more columns than rows (b1 > b2)")

    @property
    def b1(self) -> int:
        return len(self.entries[0])

    @property
    def b2(self) -> int:
        return len(self.entries)

    @property
    def kernel_rank(self) -> int:
        return self.b1 - self.b2

    def int_columns(self) -> list:
        """The sparse view of the transpose: per column, row -> form."""
        columns = [{} for _ in range(self.b1)]
        for i, row in enumerate(self.int_rows):
            for col, form in row.items():
                columns[col][i] = form
        return columns

    def to_json(self) -> list:
        return [[[str(c) for c in entry] for entry in row] for row in self.entries]


def _dense_row(row: dict, width: int, zero) -> list:
    """A sparse row {column: value}, with ``zero`` in its gaps."""
    out = [zero] * width
    for col, value in row.items():
        out[col] = value
    return out


def _unit(n: int, v: int) -> tuple:
    return tuple(1 if i == v else 0 for i in range(n + 1))


def staircase_matrix(n: int, d: int) -> LinearFormMatrix:
    """Row i of the (d+1) x (n+d+1) matrix is x_0..x_n shifted i slots."""
    units = tuple(_unit(n, v) for v in range(n + 1))
    zero = (0,) * (n + 1)
    return LinearFormMatrix(n, d, tuple((zero,) * i + units + (zero,) * (d - i)
                                        for i in range(d + 1)))


@lru_cache(maxsize=256)
def monomial_exponents(n: int, q: int) -> tuple:
    """Exponent vectors of the degree-q monomials in x_0..x_n, in descending
    lexicographic order (x_0^q first, x_n^q last); () when q < 0."""
    if q < 0:
        return ()
    return tuple(tuple(combo.count(i) for i in range(n + 1))
                 for combo in itertools.combinations_with_replacement(range(n + 1), q))


@lru_cache(maxsize=64)
def _contraction_rows(n: int, d: int) -> tuple:
    """The rows of ``sym_euler_matrix(n, d)``: per degree-d exponent vector
    beta, alpha_v * x_v in the column of alpha = beta + e_v and zero
    elsewhere.  Cached, so ``_table_route`` compares a matrix of this shape
    with them without building them again."""
    cols = monomial_exponents(n, d + 1)
    cols_idx = {alpha: c for c, alpha in enumerate(cols)}
    zero = (0,) * (n + 1)
    rows = []
    for beta in monomial_exponents(n, d):
        row = [zero] * len(cols)
        for v in range(n + 1):
            alpha = beta[:v] + (beta[v] + 1,) + beta[v + 1:]
            row[cols_idx[alpha]] = tuple(alpha[v] if i == v else 0 for i in range(n + 1))
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=64)
def sym_euler_matrix(n: int, d: int) -> LinearFormMatrix:
    """Contraction with the Euler vector field on degree-(d+1) monomials.

    Rows are indexed by degree-d exponent vectors beta, columns by
    degree-(d+1) vectors alpha; the (beta, alpha) entry is alpha_v * x_v
    when alpha = beta + e_v.  The kernel is the (d+1)-st symmetric power
    of the cotangent bundle twisted by 2d+1, of rank C(n+d, n-1).

    Built once per (n, d) and shared, as the matrix is immutable: the
    constructor's checks visit every one of its b2 x b1 cells, mostly
    zeros, and cost more than the rest of a presentation.
    """
    m = LinearFormMatrix(n, d, _contraction_rows(n, d))
    assert m.b1 == comb(n + d + 1, n) and m.b2 == comb(n + d, n)
    assert m.kernel_rank == comb(n + d, n - 1)
    return m


def random_matrix(n: int, d: int, seed: int) -> LinearFormMatrix:
    """Seeded random matrix with the staircase dimensions (d+1) x (n+d+1);
    the coefficients are drawn row by row, form by form."""
    rng = _random.Random(seed)
    return LinearFormMatrix(n, d, tuple(
        tuple(tuple(rng.randint(-5, 5) for _ in range(n + 1)) for _ in range(n + d + 1))
        for _ in range(d + 1)))


# --------------------------------------------------------------------------
# surjectivity certificates
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SurjectivityCertificate:
    method: str
    exact: bool
    detail: str

    def to_json(self) -> dict:
        return {"method": self.method, "exact": self.exact, "detail": self.detail}


def _triangular_charts(m: LinearFormMatrix) -> bool:
    """Exhaustive triangularity check proving surjectivity at every point.

    Chart j is the set of points whose least nonzero coordinate is x_j;
    the charts over all j cover P^n.  After substituting
    x_0 = .. = x_{j-1} = 0, each row's diagonal is its leftmost column
    whose form is a nonzero multiple of x_j alone.  If the diagonals are
    distinct, and no row keeps a nonzero form in another row's diagonal
    column left of its own, then the square minor on those columns, rows
    ordered by diagonal, is upper triangular with determinant c * x_j^b2,
    which cannot vanish on the chart.  The charts are read from the
    matrix, so any row order works.

    Only the sparse view's support is visited, and each form once: its
    last nonzero variable l decides every chart, since on chart j it is a
    multiple of x_j alone iff l == j and survives iff l >= j.
    """
    rows = []
    for row in m.int_rows:
        # column -> last nonzero variable of its form, in the row's column
        # order, and variable -> the first column whose form has it last
        last, first = {}, {}
        for c, f in row.items():
            v = len(f) - 1
            while not f[v]:
                v -= 1
            last[c] = v
            first.setdefault(v, c)
        rows.append((last, first))
    for j in range(m.n + 1):
        diagonal = [first.get(j) for _, first in rows]
        if None in diagonal:
            return False
        taken = set(diagonal)
        if len(taken) < len(diagonal):
            return False
        for (last, _), own in zip(rows, diagonal):
            if any(c < own and v >= j and c in taken for c, v in last.items()):
                return False
    return True


def _sections_onto(rows, width: int, n: int, cap: int | None = None) -> bool:
    """True iff the section map of sparse integer rows {column: form}
    (``_multiplication_rank``) on P^n is onto from degree s = len(rows) - 1;
    its cells are checked against ``cap`` before the fill.

    For s >= 0 the target O(s+1)^rows is globally generated, so onto
    sections make the sheaf map onto.  Conversely, a row of linear forms
    onto at every point spans them all (s = 0); on P^1 a map
    O(d)^b1 -> O(d+1)^b2 onto at every point has a kernel of degree
    (b1 - b2) d - b2, so every summand O(a) has d - b2 <= a <= d, H^1 of
    the kernel vanishes from source degree b2 - 1 on, and the section map
    is onto there.  For binary forms, onto at every point means the
    maximal minors share no root."""
    s = len(rows) - 1
    _check_cap(width * comb(n + s, n) * len(rows) * comb(n + s + 1, n), cap,
               "certificate section map cells")
    _, tgt, rank = _multiplication_rank(rows, width, n, s)
    return rank == tgt


def _certify_sampling(m: LinearFormMatrix,
                      cap: int | None = None) -> SurjectivityCertificate:
    """Heuristic certificate: full rank at all sign points, coordinate
    points and a few seeded rational points, plus the restriction to a
    seeded line, which is onto at every point of the line
    (``_sections_onto``) when no codimension-one degeneracy exists; a
    failure there leaves the restriction inconclusive.

    Points and line are evaluated on the sparse view, over its nonzero
    forms only.
    Of the sign points only those led by +1 are ranked: -pt is the same
    projective point, and in ``product`` order every +1-led point comes
    before any -1-led one, so this names the same first failure."""
    points = [(1,) + pt for pt in itertools.product((1, -1), repeat=m.n)]
    points += [_unit(m.n, v) for v in range(m.n + 1)]
    rng = _random.Random(7)
    points += [tuple(rng.randint(-17, 17) for _ in range(m.n + 1))
               for _ in range(8)]
    for pt in points:
        scalar = [_dense_row({c: sum(map(mul, form, pt)) for c, form in row.items()},
                             m.b1, 0) for row in m.int_rows]
        if exactlinalg.rank(scalar) < m.b2:
            raise NotSurjective(f"matrix drops rank at point {pt}")
    # restrict to the pencil x = s*p + t*q for seeded p, q; the entries
    # become binary forms, onto everywhere iff no codim-1 factor meets the line
    p = tuple(rng.randint(-9, 9) for _ in range(m.n + 1))
    q = tuple(rng.randint(-9, 9) for _ in range(m.n + 1))
    restricted = [{c: (sum(map(mul, form, p)), sum(map(mul, form, q)))
                   for c, form in row.items()} for row in m.int_rows]
    line_ok = _sections_onto(restricted, m.b1, 1, cap)
    detail = ("full rank at sampled points; "
              + ("pencil-restricted minor gcd constant"
                 if line_ok else "pencil restriction inconclusive"))
    return SurjectivityCertificate("point-sampling", False, detail)


# the kinds whose constructors are triangular on every chart, and the
# certificate detail each one reports
_TRIANGULAR_DETAIL = {
    "staircase": "each chart has a triangular minor equal to x_j^b2",
    "sym-euler": "each chart has a triangular minor with diagonal (beta_j+1) x_j",
}


def _certify_surjective(m: LinearFormMatrix, kind: str,
                        cap: int | None) -> SurjectivityCertificate:
    """The exact chart certificate for the built-in kinds (any row order),
    whose failure is an engine bug; else one exact ``_sections_onto`` test
    for a narrow shape: one row (b2 = 1), P^1, or b2 = 2 through the
    (n+1) x b1 coefficient matrix L(v) of v^T alpha, one row per variable,
    which drops rank somewhere on P^1 iff v^T alpha vanishes at some point
    for some [v0:v1]; else sampling.  ``cap`` bounds the section map."""
    detail = _TRIANGULAR_DETAIL.get(kind)
    if detail is not None:
        if not _triangular_charts(m):
            raise InternalInconsistency(f"{kind} triangularity check failed")
        return SurjectivityCertificate("min-coordinate-triangular", True, detail)
    if m.b2 == 1:
        rows, n, method, detail, failure = (
            m.int_rows, m.n, "linear-span", "entries span all linear forms",
            "row of linear forms has a common zero")
    elif m.n == 1:
        rows, n, method, detail, failure = (
            m.int_rows, 1, "binary-minor-gcd",
            "maximal minors have no common root on P^1",
            "maximal minors share a zero on P^1")
    elif m.b2 == 2:
        if m.b1 < m.n + 1:
            raise NotSurjective("too few columns to be pointwise surjective")
        # row var of L(v), column c: the x_var coefficients (a, b) of M[0][c]
        # and M[1][c], kept where nonzero
        zero = (0,) * (m.n + 1)
        top, bottom = m.int_rows
        pairs = {c: tuple(zip(top.get(c, zero), bottom.get(c, zero)))
                 for c in top.keys() | bottom.keys()}
        rows = [{c: pair[var] for c, pair in pairs.items() if any(pair[var])}
                for var in range(m.n + 1)]
        n, method, detail, failure = (
            1, "binary-form-resultant",
            "no functional v with v^T * alpha singular exists",
            "some corank-one functional kills a fibre")
    else:
        return _certify_sampling(m, cap)
    if not _sections_onto(rows, m.b1, n, cap):
        raise NotSurjective(failure)
    return SurjectivityCertificate(method, True, detail)


# --------------------------------------------------------------------------
# presentations and their cohomology
# --------------------------------------------------------------------------

@dataclass
class KernelBundlePresentation:
    """A certified-surjective matrix, the route its tables take, and one
    H^0 certificate per twist whose table was asked for.

    ``h0_certificates[t]`` is (dim source, dim target, rank) of
    H^0(alpha(t)): on the ``ranks`` route the rank is computed, on a
    closed-form route it is derived as dim source - h^0(F(t)).  ``cap``
    bounds the certificate's section map (``_certify_surjective``).
    """

    matrix: LinearFormMatrix
    kind: str
    seed: int | None = None
    surjectivity: SurjectivityCertificate = None
    h0_certificates: dict = field(default_factory=dict)
    route: str = field(init=False, repr=False)
    cap: InitVar[int | None] = None

    def __post_init__(self, cap):
        if self.surjectivity is None:
            self.surjectivity = _certify_surjective(self.matrix, self.kind, cap)
        self.route = _table_route(self.matrix, self.surjectivity)

    @property
    def rank(self) -> int:
        return self.matrix.kernel_rank

    def __str__(self) -> str:
        tag = f",seed={self.seed}" if self.seed is not None else ""
        return (f"ker({self.kind},n={self.matrix.n},d={self.matrix.d}{tag})")

    def to_json(self) -> dict:
        return {
            "n": self.matrix.n,
            "d": self.matrix.d,
            "b1": self.matrix.b1,
            "b2": self.matrix.b2,
            "rank": self.rank,
            "kind": self.kind,
            "seed": self.seed,
            "surjectivity": self.surjectivity.to_json(),
            "h0_certificates": {str(t): list(v)
                                for t, v in sorted(self.h0_certificates.items())},
            "matrix": self.matrix.to_json(),
        }


@dataclass(frozen=True)
class TwistedKernel:
    """A kernel bundle twisted by O(shift); usable as an Ulrich candidate."""

    presentation: KernelBundlePresentation
    shift: int = 0

    def twisted_table(self, v, twists: dict, dim: int) -> CohomologyTable:
        """h^0..h^dim of this kernel tensored into ``twists = {(shift, (t,)):
        mult}``, each term ``kernel_cohomology(presentation, self.shift + t)``
        (``pushforward_table``); v must be the P^n the kernel lives on."""
        n = self.presentation.matrix.n
        if not (isinstance(v, ProjSpace) and v.n == n):
            raise UnsupportedVariety(f"kernel presentation is on P^{n}, not {v.name}")
        return pushforward_table(dim, twists, lambda twist: kernel_cohomology(
            self.presentation, self.shift + twist[0]))

    def __str__(self) -> str:
        if self.shift:
            return f"{self.presentation}({self.shift:+d})"
        return str(self.presentation)


def staircase_presentation(n: int, d: int) -> KernelBundlePresentation:
    return KernelBundlePresentation(staircase_matrix(n, d), "staircase")


def sym_euler_presentation(n: int, d: int) -> KernelBundlePresentation:
    return KernelBundlePresentation(sym_euler_matrix(n, d), "sym-euler")


def random_presentation(n: int, d: int, seed: int,
                        cap: int | None = None) -> KernelBundlePresentation:
    return KernelBundlePresentation(random_matrix(n, d, seed), "random", seed=seed,
                                    cap=cap)


class _Shape(NamedTuple):
    """(n, d, b1, b2) of a map O(d)^b1 -> O(d+1)^b2 on P^n: all that the
    closed tables and Riemann-Roch read of a presentation.  A
    ``LinearFormMatrix`` has the same four attributes, so they take either."""

    n: int
    d: int
    b1: int
    b2: int


def _builtin_shape(kind: str, n: int, d: int) -> _Shape:
    """The shape of the built-in presentation of ``kind``: the contraction
    for ``sym-euler``, the staircase's (d+1) x (n+d+1) for every other."""
    if kind == "sym-euler":
        return _Shape(n, d, comb(n + d + 1, n), comb(n + d, n))
    return _Shape(n, d, n + d + 1, d + 1)


def check_presentation_size(kind: str, n: int, d: int, cap: int | None) -> None:
    """Refuse, before the build, a built-in presentation of ``kind`` whose
    b2 x b1 matrix holds more than ``cap`` coefficients (n+1 per entry)
    with ``BoxTooLarge``; invalid (n, d) are left to the constructor."""
    if n < 1 or d < 0:
        return
    shape = _builtin_shape(kind, n, d)
    _check_cap(shape.b1 * shape.b2 * (n + 1), cap, f"{kind} presentation coefficients")


def rank_route_cells(m: LinearFormMatrix, t: int) -> int:
    """Dense cells of the two section maps ``_rank_table`` fills at twist t:
    H^0(alpha(t)), b2 dim S_{d+1+t} x b1 dim S_{d+t}, and its Serre-dual
    counterpart, b1 dim S_{e+1} x b2 dim S_e with e = -(d+1+t)-n-1."""
    def cells(rows, cols, deg):
        if deg < 0:
            return 0
        return rows * cols * comb(m.n + deg + 1, m.n) * comb(m.n + deg, m.n)
    return cells(m.b2, m.b1, m.d + t) + cells(m.b1, m.b2, -(m.d + 1 + t) - m.n - 1)


def check_section_map_size(p: KernelBundlePresentation, t: int,
                           cap: int | None) -> None:
    """Refuse, before any fill, a ``ranks``-route table at twist t whose
    section maps hold more than ``cap`` cells with ``BoxTooLarge``; the
    closed-form routes fill nothing and pass."""
    if p.route == "ranks":
        _check_cap(rank_route_cells(p.matrix, t), cap, "rank-route section map cells")


def _multiplication_rank(rows, width: int, n: int, src_deg: int) -> tuple:
    """(dim source, dim target, exact rank) of the section-level map
    induced in degree src_deg by a matrix of integer linear forms, given
    as sparse rows {column: form} of ``width`` columns (rows = target
    copies, columns = source copies), in monomial bases.

    The matrix is laid out monomial-major: row (target monomial, copy),
    column (source monomial, copy).  A source monomial only reaches its
    products with x_0..x_n, so the nonzeros keep near the diagonal of
    monomial blocks (on P^1 the matrix is block-bidiagonal) and the
    elimination fills in little."""
    mons_src = monomial_exponents(n, src_deg)
    mons_tgt = monomial_exponents(n, src_deg + 1)
    height = len(rows)
    src, tgt = width * len(mons_src), height * len(mons_tgt)
    if not src or not tgt:
        return (src, tgt, 0)
    tgt_index = {mono: i for i, mono in enumerate(mons_tgt)}
    # raised[mi][var] = first row of the target monomial mons_src[mi] * x_var
    raised = [[height * tgt_index[mono[:var] + (mono[var] + 1,) + mono[var + 1:]]
               for var in range(n + 1)] for mono in mons_src]
    out = [[0] * src for _ in range(tgt)]
    for r, row in enumerate(rows):
        for c, form in row.items():
            terms = [(var, coeff) for var, coeff in enumerate(form) if coeff]
            for col, up in zip(range(c, src, width), raised):
                for var, coeff in terms:
                    out[up[var] + r][col] += coeff
    return (src, tgt, exactlinalg.rank(out))


def h0_multiplication_rank(m: LinearFormMatrix, t: int):
    """(dim source, dim target, exact rank) of H^0(alpha(t)) in monomial bases."""
    return _multiplication_rank(m.int_rows, m.b1, m.n, m.d + t)


def _table_route(m: LinearFormMatrix, surjectivity: SurjectivityCertificate) -> str:
    """The route of every table of this presentation (module docstring):
    Buchsbaum-Rim needs an exact certificate and b1 = b2 + n; Borel-Weil-Bott
    needs the matrix to be the contraction, row for row."""
    n, d = m.n, m.d
    if surjectivity.exact and m.b1 == m.b2 + n:
        return "buchsbaum-rim"
    if ((m.b1, m.b2) == (comb(n + d + 1, n), comb(n + d, n))
            and m.entries == _contraction_rows(n, d)):
        return "borel-weil-bott"
    return "ranks"


def _builtin_route(shape: _Shape) -> str:
    """The route ``_table_route`` gives a built-in staircase or contraction
    presentation of this shape, whose chart certificate is exact:
    Buchsbaum-Rim when b1 = b2 + n (every staircase, the contraction with
    d = 0), else Borel-Weil-Bott, since the matrix is the contraction."""
    return "buchsbaum-rim" if shape.b1 == shape.b2 + shape.n else "borel-weil-bott"


def _buchsbaum_rim_h(m: _Shape, t: int) -> list:
    """h^*(F(t)) for a presentation of shape m onto at every point with
    b1 = b2 + n.

    coker H^0(alpha(t)) is M_{d+1+t} for M = coker(S(-1)^b1 -> S^b2), which
    the Buchsbaum-Rim complex C_0 = S^b2, C_1 = S(-1)^b1 and, for
    j = 2..n+1, C_j = S(-(b2+j-1))^(C(b1, b2+j-1) C(b2+j-3, j-2)) resolves.
    The top-level map is onto, so h^n is b1 h^n(O(d+t)) - b2 h^n(O(d+1+t)).
    """
    n, b1, b2 = m.n, m.b1, m.b2
    deg = m.d + 1 + t
    terms = [(b2, 0), (b1, 1)] + [(comb(b1, b2 + j - 1) * comb(b2 + j - 3, j - 2),
                                   b2 + j - 1) for j in range(2, n + 2)]
    coker = sum((-1) ** j * mult * _proj_space_line(n, deg - shift).h[0]
                for j, (mult, shift) in enumerate(terms))
    src, tgt = _proj_space_line(n, m.d + t).h, _proj_space_line(n, deg).h
    h = [0] * (n + 1)
    h[0] = b1 * src[0] - b2 * tgt[0] + coker
    h[1] += coker
    h[n] += b1 * src[n] - b2 * tgt[n]
    return h


def _borel_weil_bott_h(m: _Shape, t: int) -> list:
    """h^*(Sym^k(Omega(1)) (a)) with k = d+1 and a = d+t, the contraction's
    kernel twisted by t, for its shape m.  The weight (a, k, 0, .., 0) plus
    rho = (n, .., 0) either repeats an entry, and every group vanishes, or
    sorts in l transpositions to nu, and h^l is the dimension of the GL_{n+1}
    module of highest weight nu - rho: prod (nu_i - nu_j) / (j - i) over
    i < j (Weyl)."""
    n = m.n
    weight = [m.d + t + n, m.d + n] + list(range(n - 2, -1, -1))
    h = [0] * (n + 1)
    if len(set(weight)) == n + 1:
        pairs = list(itertools.combinations(range(n + 1), 2))
        nu = sorted(weight, reverse=True)
        h[sum(weight[i] < weight[j] for i, j in pairs)] = (
            prod(nu[i] - nu[j] for i, j in pairs) // prod(j - i for i, j in pairs))
    return h


_CLOSED_TABLES = {"buchsbaum-rim": _buchsbaum_rim_h,
                  "borel-weil-bott": _borel_weil_bott_h}


def _kernel_chi(m: _Shape, t: int) -> int:
    """b1 chi(O(d+t)) - b2 chi(O(d+1+t)), the chi of F(t), by Riemann-Roch."""
    pn = ProjSpace(m.n)
    return m.b1 * _line_chi(pn, (m.d + t,)) - m.b2 * _line_chi(pn, (m.d + 1 + t,))


def _closed_table(route: str, m: _Shape, t: int, label) -> CohomologyTable:
    """The ``route`` table of F(t) for a presentation of shape m, which
    must be nonnegative and whose chi must equal ``_kernel_chi``, else
    ``InternalInconsistency`` naming the presentation ``label``."""
    table = CohomologyTable.make(_CLOSED_TABLES[route](m, t))
    chi = _kernel_chi(m, t)
    if table.chi != chi:
        raise InternalInconsistency(
            f"{route} table {table.h} of {label} at twist {t} has chi "
            f"{table.chi}, Riemann-Roch gives {chi}")
    return table


def kernel_cohomology(p: KernelBundlePresentation, t: int) -> CohomologyTable:
    """Table of H^*(F(t)) for the kernel F on the presentation's route.

    On a closed-form route the table is ``_closed_table``'s and its H^0
    certificate is derived from h^0.  On the ``ranks`` route see
    ``_rank_table``.
    """
    if p.route not in _CLOSED_TABLES:
        return _rank_table(p, t)
    m = p.matrix
    table = _closed_table(p.route, m, t, p)
    s0 = m.b1 * _proj_space_line(m.n, m.d + t).h[0]
    t0 = m.b2 * _proj_space_line(m.n, m.d + 1 + t).h[0]
    p.h0_certificates[t] = (s0, t0, s0 - table.h[0])
    return table


def _rank_table(p: KernelBundlePresentation, t: int) -> CohomologyTable:
    """Table of H^*(F(t)) for the kernel F, assembled from the long exact
    sequence of 0 -> F(t) -> O(d+t)^b1 -> O(d+1+t)^b2 -> 0.

    The middle terms only have cohomology in degrees 0 and n, so
    h^0 = ker H^0(alpha), h^1 picks up coker H^0(alpha), degrees
    2..n-1 vanish, and h^n is the kernel of the top-level map, computed
    as an exact rank of the transposed multiplication between the
    Serre-dual section spaces.  The top-level map is checked surjective
    (H^{n+1} of a sheaf on P^n vanishes); failure would be an engine bug.
    """
    m = p.matrix
    n, d = m.n, m.d
    cached = p.h0_certificates.get(t)
    if cached is None:
        cached = h0_multiplication_rank(m, t)
        p.h0_certificates[t] = cached
    s0, t0, r0 = cached
    # Serre-dual side: the top-level map dualises to multiplication by the
    # transposed matrix from degree e to e+1, so its source has dimension
    # tn = b2 h^n(O(d+1+t)) and its target sn = b1 h^n(O(d+t))
    e = -(d + 1 + t) - n - 1
    tn, sn, rn = _multiplication_rank(m.int_columns(), m.b2, n, e)
    if tn - rn != 0:
        raise InternalInconsistency(
            f"top-level section map not surjective at twist {t}: "
            f"coker dimension {tn - rn}")
    h = [0] * (n + 1)
    h[0] = s0 - r0
    h[1] += t0 - r0
    h[n] += sn - rn
    return CohomologyTable.make(h)


# --------------------------------------------------------------------------
# the two-term orthogonality conditions and the rank-n builder
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaReport:
    """The ``ulrich.TwistCheck``s placing the kernel in <O(d), O(d+1)>."""

    passed: bool
    checks: tuple

    def to_json(self) -> dict:
        return {"passed": self.passed,
                "tables": [{"twist": c.label, "h": list(c.table.h), "ok": c.ok}
                           for c in self.checks]}


def lemma_conditions_check(p: KernelBundlePresentation,
                           cap: int | None = None) -> LemmaReport:
    """H^*(F) = 0 together with H^*(F(-d-k)) = 0 for k = 2..n, the
    right-orthogonality to O(d+2)..O(d+n) inside the exceptional sequence,
    checked by ``ulrich._checks`` on P^n with labels F and F(-d-k).

    Every twist is checked against ``cap`` (``check_section_map_size``)
    before any table is filled."""
    n, d = p.matrix.n, p.matrix.d
    twists = [0] + [-d - k for k in range(2, n + 1)]
    for t in twists:
        check_section_map_size(p, t, cap)
    checks = _checks(ProjSpace(n), TwistedKernel(p), n,
                     ((f"F({t})" if t else "F", {(0, (t,)): 1}) for t in twists))
    return LemmaReport(all(c.ok for c in checks), tuple(checks))


@dataclass(frozen=True)
class Prop61Result:
    """Outcome of the rank-n Ulrich construction on P(O(1) + O^d) over P^n."""

    report: UlrichReport
    presentation: KernelBundlePresentation | None
    condition_twists: tuple

    def to_json(self) -> dict:
        out = {"report": self.report.to_json(),
               "condition_twists": list(self.condition_twists)}
        out["presentation"] = (self.presentation.to_json()
                               if self.presentation is not None else None)
        return out


def _condition_twists(n: int, d: int) -> tuple:
    # {d + 2 + k + j : 0 <= j <= k <= n - 2}, which fills d+2..d+2n-2
    return tuple(range(d + 2, d + 2 * n - 1))


def _pn_bundle(n: int, d: int):
    base = ProjSpace(n)
    one = DivisorClass(base, (1,))
    zero = DivisorClass(base, (0,))
    e = SplitBundle(base, (one,) + (zero,) * d)
    return base, e, one


def prop61_builder(n: int, d: int, line_box: int = 8, presentation_bound: int = 4,
                   cap: int | None = None) -> Prop61Result:
    """Search for rank-n Ulrich bundles pullback(F)(h + H) on P(O(1) + O^d).

    The exact obstruction set is H^*(F) = 0 together with
    H^*(F(-(d+2+k+j))) = 0 for 0 <= j <= k <= n-2.  For n = 2 the
    staircase kernel with parameter d satisfies it and the direct check
    on P(E) confirms the Ulrich verdict.

    For n >= 3 no bundle satisfies it, by a Riemann-Roch root count: the
    conditions ask chi(F(t)) = 0 at the 2n - 2 distinct twists t = 0 and
    t = -(d+2), .., -(d+2n-2), but for F of rank r > 0 on P^n, chi(F(t))
    is a polynomial in t of degree n with leading coefficient r/n!, so it
    has at most n roots, and 2n - 2 > n.  The condition set is still
    scanned over line bundles and staircase / symmetric-power kernels with
    parameter <= ``presentation_bound``, and the absence of a hit is
    reported with a discrepancy note, not an error; a hit contradicts the
    root count and raises ``InternalInconsistency``.  The scan reads only
    each kernel's shape (n, d, b1, b2): chi from Riemann-Roch, and the
    zero-chi twists from the closed table of the route the built, exactly
    certified presentation would take (``_builtin_route``), so no matrix
    is built.  Presentations over ``cap`` coefficients are refused before
    the scan as before a build (``check_presentation_size``).
    """
    if n < 2 or d < 1:
        raise UnsupportedVariety(f"builder needs n >= 2, d >= 1; got ({n}, {d})")
    if n == 2:
        check_presentation_size("staircase", n, d, cap)
    else:
        for kind in ("staircase", "sym-euler"):
            check_presentation_size(kind, n, presentation_bound, cap)
    twists = _condition_twists(n, d)
    if n == 2:
        pres = staircase_presentation(2, d)
        lemma = lemma_conditions_check(pres, cap)
        if not lemma.passed:
            raise InternalInconsistency("staircase kernel fails its own "
                                        "orthogonality conditions")
        base, e, one = _pn_bundle(n, d)
        report = direct_ulrich_check(ProjBundle(base, e), TwistedKernel(pres, 0), one)
        report = replace(report, notes=report.notes + (
            f"kernel rank {pres.rank} from staircase parameter {d}",
            f"conditions H(F)=0 and H(F(-s))=0 for s in {list(twists)} "
            "verified from the presentation",
        ))
        return Prop61Result(report, pres, twists)

    # n >= 3: every hit contradicts the root count of the docstring
    def root_count_broken(candidate):
        return InternalInconsistency(
            f"{candidate} meets the conditions at {len(twists) + 1} twists, but "
            f"its chi is a polynomial of degree {n} with at most {n} roots")

    # a line bundle O(e) with H^*(O(e)) = 0 lies in the zero interval of
    # P^n, so only its degrees inside the box are tried
    _, first, last = _zero_interval(ProjSpace(n), ())
    for deg in range(max(first, -line_box), min(last, line_box) + 1):
        if all(first <= deg - s <= last for s in twists):
            raise root_count_broken(f"O({deg})")
    scanned = []
    for kind in ("staircase", "sym-euler"):
        for dp in range(0, presentation_bound + 1):
            shape = _builtin_shape(kind, n, dp)
            route = _builtin_route(shape)
            label = f"ker({kind},n={n},d={dp})"
            # cheap twists first: sort by total section dimension involved
            order = sorted([0] + [-s for s in twists],
                           key=lambda t: (_proj_space_line(n, dp + t).h[0]
                                          + _proj_space_line(n, dp + 1 + t).h[0]))
            for t in order:
                chi = _kernel_chi(shape, t)
                if chi != 0:
                    evidence = f"t={t}: chi = {chi}"
                    break
                table = _closed_table(route, shape, t, label)
                if not table.is_zero():
                    evidence = f"t={t}: h = {table.h}"
                    break
            else:
                raise root_count_broken(label)
            scanned.append(f"{kind}(n={n},d={dp}): {evidence}")
    notes = (
        f"exact condition set: H(F)=0 and H(F(-s))=0 for s in {list(twists)}",
        f"line bundles O(e), |e| <= {line_box}: hits []",
        f"presentations scanned with parameter <= {presentation_bound}: hits []",
        "discrepancy: a rank-n candidate inside <O(n), O(n+1)> would need "
        "D^b(P^n) = <O(n), O(n+1), ..., O(2n+1)>, a sequence of n+2 "
        "exceptional line bundles where only n+1 fit; the computed "
        "condition set above is what the twist family actually forces, "
        "and no object in the searched class satisfies it",
    )
    report = UlrichReport(
        candidate="none",
        polarisation="[1]",
        verdict=False,
        checks=(),
        method="criterion",
        generic=False,
        notes=notes + tuple(scanned),
    )
    return Prop61Result(report, None, twists)
