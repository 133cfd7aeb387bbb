"""Exact sheaf cohomology of split bundles on the supported varieties.

Five ingredients:

* closed line-bundle tables on P^n and on generic curves,
* the projection-formula branches for P(E) -> X over any supported base,
  a P(E) such as F_r included: for O(pullback(B) + kH) the derived
  pushforward is Sym^k(E)(B) in degree 0 when k >= 0, zero in the dead
  band -rank < k < 0, and dual(Sym^{-k-rank}E)(B - c1(E)) in degree
  rank-1 when k <= -rank.  ``pushforward_terms`` alone knows these
  branches; it counts the base twists with their multiplicities instead
  of enumerating Sym^k,
* one merged walk down a tower (``split_table``) for every split table:
  ``cohomology`` and ``euler_characteristic`` start it from the summands
  (``start_terms``), and each check of ``ulrich.is_ulrich``, of the
  criterion (all of Sym^k per k) and of the direct check (a pushed-down
  twist) from the candidate tensored into its twists (``tensor_terms``;
  ``candidate_table`` is the one rule for what all of them accept, a box
  scan's hits as bare coordinate tuples among it); ``push_down`` merges
  equal twists, so a level costs its distinct twists,
* a closed level where the walk stops, P^n, a curve, or P(E) over
  either (F_r and PB(P1;...) among them), tabulated in one pass over its
  terms (``_closed_level_table``): on P(E) the twists e of the
  pushforward of O(kH) and their multiplicities m_e do not depend on the
  base degree a, so they are kept sorted with prefix sums of m_e *
  C(e, i), i = 0..n, once per H-degree; the table of O(a + kH) is then
  one ``bisect`` and O(n) sums, since h^0(O(x)) = C(x + n, n) for x >= -n
  and h^n(O(x)) = (-1)^n C(x + n, n) below (x - g in place of x on a
  curve of genus g).  As every m_e > 0, the table vanishes exactly on one
  interval of a (``_zero_interval``), on deeper towers too: the box scans
  of ``search`` read their hits off it and re-check them with one table
  of their direct sum, exact because the one pass refuses a term that
  could cancel another,
* an independent combinatorial Cech oracle on P^n and every split tower
  over it, recomputing tables from the fan by levels: the fan complex is
  the join of its levels' simplex boundaries, so only sign patterns that
  are all or none negative on each level carry homology, and along the
  last axis of the character box each ray's sign flips at most once, so
  each plane of the box is counted per such pattern as one interval per
  row, and a mixed pattern is never visited.

chi (``euler_characteristic``) is a closed polynomial on P^n and on every
P(E) over P^n, F_r included (``_line_chi``, from coefficients built once
per E and n), so it expands no Sym^k and its cost does not grow with k;
on deeper towers it sums these over the merged walk, which the oracle
checks, down to the level where the tables stop, and so checks the
closed levels' tables over P^n.  The Ulrich criterion enumerates Sym^k with
``picard.sym_power`` instead, so the direct check on P(E) and the
criterion expand the pushforward in two different ways.  The oracle
shares no code with either.

All values are exact integers; generic-curve answers are flagged.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from math import comb, inf, prod
from operator import add, mul

from . import exactlinalg
from .errors import (
    BoxTooLarge,
    GenericModeUnsupported,
    InternalInconsistency,
    ScanBoxTooSmall,
    UnsupportedVariety,
)
from .picard import (
    DivisorClass,
    GenericCurve,
    ProjBundle,
    ProjSpace,
    SplitBundle,
    Variety,
)


@dataclass(frozen=True)
class CohomologyTable:
    """Dimensions h^0..h^dim, their alternating sum, and a genericity flag."""

    h: tuple
    chi: int
    generic: bool = False

    @classmethod
    def make(cls, h, generic: bool = False) -> "CohomologyTable":
        h = tuple(map(int, h))
        if min(h) < 0:
            raise InternalInconsistency(f"negative cohomology dimension in {h}")
        return cls(h, sum(h[::2]) - sum(h[1::2]), generic)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.h)

    def to_json(self) -> dict:
        return {"h": list(self.h), "chi": self.chi, "generic": self.generic}

    def __str__(self) -> str:
        flag = " (generic)" if self.generic else ""
        return f"h = {self.h}  chi = {self.chi}{flag}"


# --------------------------------------------------------------------------
# line-bundle tables
# --------------------------------------------------------------------------

def _proj_space_line(n: int, d: int) -> CohomologyTable:
    if d >= 0:
        top = comb(n + d, n)
        return CohomologyTable((top,) + (0,) * n, top)
    if d <= -n - 1:
        top = comb(-d - 1, n)
        return CohomologyTable((0,) * n + (top,), (-1) ** n * top)
    return CohomologyTable((0,) * (n + 1), 0)


@lru_cache(maxsize=1024)
def _twist_sums(summands: tuple, k: int, n: int):
    """``(shift, twists, sums)`` for O(kH) on P(E) over a base of dimension n.

    ``twists`` are the sorted degrees e of the pushforward terms of
    ``pushforward_terms(summands, (0,), k)``; ``sums[j][c]`` is the sum of
    m_e * C(e, n - j) over ``twists[:c]``, for j = 0..n.  A multiplicity
    m_e < 1 raises InternalInconsistency: ``_zero_interval`` needs m_e > 0.
    """
    shift, terms = pushforward_terms(summands, (0,), k)
    items = sorted((e, m) for (e,), m in terms.items())
    if any(m < 1 for _, m in items):
        raise InternalInconsistency(
            f"non-positive multiplicity in the pushforward of O({k}H): {items}")
    sums = [list(itertools.accumulate((m * _binomial(e, i) for e, m in items),
                                      initial=0))
            for i in range(n, -1, -1)]
    return shift, [e for e, _ in items], sums


def _non_positive(mult: int, twist: tuple, shift: int) -> InternalInconsistency:
    return InternalInconsistency(
        f"non-positive multiplicity {mult} of O{twist} in degree {shift}")


def _closed_level_table(v: Variety, terms: dict, dim: int) -> CohomologyTable:
    """h^0..h^dim of the sum of O(coords)^mult in degree shift over ``terms
    = {(shift, coords): mult}`` on a level where the walk stops, in one pass
    over the terms in their order.  On P^n each term's table is
    ``_proj_space_line``'s; on a curve of genus g the Brill-Noether-general
    table, flagged generic: h^0 = max(0, chi), chi = d - g + 1.  On P(E) over either, with x = a + n (a - g + 1 over
    a curve, the case n = 1), the twists e >= -x of ``_twist_sums``
    (looked up once per H-degree k) give h^shift of O(a + kH), the ones
    below h^(shift + n), and by Vandermonde each is a sum over j of C(x, j)
    times the power sums of C(e, n - j): one ``bisect`` and O(n) integer
    work whatever the twists are; generic over a curve when a twist is.

    Each term is checked as it is summed: a multiplicity < 1, or on P(E) a
    negative entry of the term's table (on P^n and curves no entry can be
    negative), raises InternalInconsistency naming it.  So no term can
    cancel another, and the sum vanishes iff every term's table does,
    which lets a box scan re-check all its hits with one table
    (``search._scan``).
    """
    h = [0] * (dim + 1)
    generic = False
    if isinstance(v, ProjBundle):
        base = v.base
        if isinstance(base, GenericCurve):
            n, lift, curve = 1, 1 - base.genus, True
        else:
            n, lift, curve = base.n, base.n, False
        sign, summands, by_degree = (-1) ** n, v.summand_coords, {}
        for (shift, (a, k)), mult in terms.items():
            if mult < 1:
                raise _non_positive(mult, (a, k), shift)
            found = by_degree.get(k)
            if found is None:
                found = by_degree[k] = _twist_sums(summands, k, n)
            s, twists, sums = found
            x = a + lift
            cut = bisect_left(twists, -x)
            low = high = 0
            c = 1  # C(x, j)
            for j, col in enumerate(sums):
                low += c * col[cut]
                high += c * col[-1]
                c = c * (x - j) // (j + 1)
            high -= low
            low *= sign
            if high < 0 or low < 0:
                part = [0] * (v.dim + 1)
                part[s], part[s + n] = high, low
                raise InternalInconsistency(
                    f"negative cohomology dimension in {tuple(part)}")
            if curve and twists:
                generic = True
            h[shift + s] += mult * high
            h[shift + s + n] += mult * low
    elif isinstance(v, ProjSpace):
        n = v.n
        for (shift, (d,)), mult in terms.items():
            if mult < 1:
                raise _non_positive(mult, (d,), shift)
            for i, x in enumerate(_proj_space_line(n, d).h, shift):
                h[i] += mult * x
    elif isinstance(v, GenericCurve):
        g = v.genus
        for (shift, (d,)), mult in terms.items():
            if mult < 1:
                raise _non_positive(mult, (d,), shift)
            chi = d - g + 1
            h0 = max(0, chi)
            h[shift] += mult * h0
            h[shift + 1] += mult * (h0 - chi)
            generic = True
    else:
        raise UnsupportedVariety(f"no cohomology rule for {v!r}")
    return CohomologyTable.make(h, generic)


def _zero_interval(v: Variety, rest: tuple) -> tuple:
    """``(generic, first, last)``: O(a, *rest) on v has no cohomology
    exactly when first <= a <= last; ``generic`` when its tables are.  On
    P(E) over P^n or a curve each h^i of O(a + kH) is the sum of m_e *
    h^(i - shift)(O(a + e)) over the twists e of ``_twist_sums``, every
    m_e > 0: the base's interval shifted by -min e and -max e, or every a
    when there are none (the dead band).  A deeper tower pushes O(0, *rest)
    down to that level, where a adds to each term's first coordinate e:
    the intersection of their intervals shifted by -e (every a if none).
    """
    return _zero_rows(v)(rest)


def _zero_rows(v: Variety):
    """``_zero_interval`` on v as a function of ``rest``, with what depends
    on v alone worked out once, so that a box scan builds it once and calls
    it per row: on P(E) over P^n or a curve the base's interval, on a
    deeper tower the row function of the level its walk stops at, each
    row then taking its own walk."""
    if isinstance(v, ProjSpace):
        return lambda rest: (False, -v.n, -1)
    if isinstance(v, GenericCurve):
        return lambda rest: (True, v.genus - 1, v.genus - 1)
    if not _closed_level(v):
        row = _zero_rows(_tower_terms(v, {})[0])

        def tower_row(rest):
            terms = _tower_terms(v, {(0, (0, *rest)): 1})[1]
            generic, first, last = False, -inf, inf
            for _, (e, *e_rest) in terms:
                flag, lo, hi = row(tuple(e_rest))
                generic, first, last = generic or flag, max(first, lo - e), min(last, hi - e)
            return generic, first, last
        return tower_row
    generic, first, last = _zero_interval(v.base, ())
    summands, n = v.summand_coords, v.base.dim

    def closed_row(rest):
        twists = _twist_sums(summands, *rest, n)[1]
        if not twists:
            return False, -inf, inf
        return generic, first - twists[0], last - twists[-1]
    return closed_row


def pushforward_terms(summands: tuple, b_coords: tuple, k: int):
    """Projection formula for O(pullback(B) + kH) on P(E) -> X.

    ``summands`` are the coordinate tuples of the split E and ``b_coords``
    those of B.  Returns ``(shift, terms)``: the derived pushforward is
    the direct sum of O(twist)^mult over ``terms = {twist: mult}``, placed
    in degree ``shift``, so H^i(P(E), O(pullback(B) + kH)) is the sum of
    mult * H^(i - shift)(X, O(twist)).  With p = k (or -k - rank on the
    dual branch) the multiplicities are the coefficients of z^p in
    prod_i 1/(1 - z t^(+-s_i)), counted by a DP over the summands instead
    of enumerating the C(rank+p-1, p) index tuples of Sym^p.
    """
    rho = len(summands)
    if -rho < k < 0:
        return 0, {}
    if k >= 0:
        power, shift, start, steps = k, 0, tuple(b_coords), summands
    else:
        power, shift = -k - rho, rho - 1
        c1 = [sum(col) for col in zip(*summands)]
        start = tuple(b - c for b, c in zip(b_coords, c1))
        steps = [tuple(-c for c in s) for s in summands]
    # layers[j]: twist -> multiplicity in the coefficient of z^j, over the
    # summands processed so far
    layers = [{start: 1}] + [{} for _ in range(power)]
    for step in steps[:-1]:
        for j in range(1, power + 1):
            layer = layers[j]
            for e, mult in layers[j - 1].items():
                twist = tuple(map(add, e, step))
                layer[twist] = layer.get(twist, 0) + mult
    # of the last summand only z^power is needed: m copies of it complete
    # layer power - m
    terms = {}
    for m, layer in enumerate(reversed(layers)):
        offset = tuple(m * c for c in steps[-1])
        for e, mult in layer.items():
            twist = tuple(map(add, e, offset))
            terms[twist] = terms.get(twist, 0) + mult
    return shift, terms


def push_down(v: ProjBundle, terms: dict) -> dict:
    """``terms = {(shift, coords): mult}`` on v (mult copies of O(coords) in
    degree shift) pushed to v.base, equal ``(shift, twist)`` keys merged."""
    down = {}
    for (shift, coords), mult in terms.items():
        s, twists = pushforward_terms(v.summand_coords, coords[:-1], coords[-1])
        for twist, m in twists.items():
            key = (shift + s, twist)
            down[key] = down.get(key, 0) + mult * m
    return down


def _closed_level(v: ProjBundle) -> bool:
    """Where the tables' walk stops: a P(E) over P^n or over a curve."""
    return not isinstance(v.base, ProjBundle)


def _tower_terms(v: Variety, terms: dict, closed=_closed_level):
    """``(level, terms)``: the terms pushed down to the first level that
    ``closed`` accepts, or to the bottom of the tower (P^n or a curve)."""
    while isinstance(v, ProjBundle) and not closed(v):
        v, terms = v.base, push_down(v, terms)
    return v, terms


def pushforward_table(dim: int, terms: dict, base_table) -> CohomologyTable:
    """Sum over ``terms = {(shift, twist): mult}`` of mult *
    ``base_table(twist)``, shifted: the route of the tables that come one
    per twist from a callback, such as those of a twisted kernel bundle
    (``kernelbundle.TwistedKernel``); split tables take the one pass of
    ``_closed_level_table`` instead.

    Each part is checked as it is summed, as there: a multiplicity < 1 or
    a negative entry of ``base_table(twist)`` raises InternalInconsistency,
    so no term can cancel another.
    """
    h = [0] * (dim + 1)
    generic = False
    for (shift, twist), mult in terms.items():
        if mult < 1:
            raise _non_positive(mult, twist, shift)
        part = base_table(twist)
        if min(part.h) < 0:
            raise InternalInconsistency(f"negative cohomology dimension in {part.h}")
        generic = generic or part.generic
        for i, x in enumerate(part.h, shift):
            h[i] += mult * x
    return CohomologyTable.make(h, generic)


def split_table(v: Variety, terms: dict, dim: int) -> CohomologyTable:
    """h^0..h^dim of the sum of O(coords)^mult in degree shift over ``terms
    = {(shift, coords): mult}`` on v: one merged walk, then one pass over
    the closed level it stops at (``_closed_level_table``)."""
    base, terms = _tower_terms(v, terms)
    return _closed_level_table(base, terms, dim)


def tensor_terms(coords, twists: dict) -> dict:
    """The walk's terms ``{(shift, coords): mult}`` of the direct sum of
    O(c), c running over the coordinate tuples ``coords``, tensored into
    ``twists`` (terms of the same form)."""
    terms = {}
    for (shift, twist), mult in twists.items():
        for c in coords:
            key = (shift, tuple(map(add, twist, c)))
            terms[key] = terms.get(key, 0) + mult
    return terms


def start_terms(v: Variety, bundle, twists: dict | None = None) -> dict:
    """The walk's terms ``{(shift, coords): mult}``: the summands of a split
    bundle (or of one divisor class) on v, tensored into ``twists`` (terms
    of the same form; O in degree 0 when None)."""
    if bundle.variety != v:
        raise UnsupportedVariety("bundle does not live on the given variety")
    summands = (bundle,) if isinstance(bundle, DivisorClass) else bundle.summands
    twists = {(0, (0,) * v.picard_rank): 1} if twists is None else twists
    return tensor_terms([s.coords for s in summands], twists)


def candidate_table(v: Variety, cand, twists: dict, dim: int) -> CohomologyTable:
    """Table h^0..h^dim of cand(twist)^mult in degree shift, summed over
    ``twists = {(shift, coords): mult}`` on v.  The one rule for what is a
    candidate: a split bundle or a divisor class is tensored into the
    twists and walked once (``split_table``); any other object tabulates
    itself with ``cand.twisted_table(v, twists, dim)``, such as a twisted
    kernel bundle on P^n (``kernelbundle``) or the hits of a box scan
    (``search``); anything else is refused."""
    if isinstance(cand, (SplitBundle, DivisorClass)):
        return split_table(v, start_terms(v, cand, twists), dim)
    if not hasattr(cand, "twisted_table"):
        raise UnsupportedVariety(f"not an Ulrich candidate: {cand}")
    return cand.twisted_table(v, twists, dim)


def cohomology(v: Variety, cand) -> CohomologyTable:
    """Cohomology table on v of a split bundle, a single divisor class, or
    any other candidate that ``candidate_table`` accepts: its table
    tensored into O in degree 0."""
    return candidate_table(v, cand, {(0, (0,) * v.picard_rank): 1}, v.dim)


# --------------------------------------------------------------------------
# Euler characteristics from closed polynomials
# --------------------------------------------------------------------------

def _binomial(x: int, j: int) -> int:
    """C(x, j) = x (x-1) ... (x-j+1) / j! read as a polynomial in x."""
    return comb(x, j) if x >= 0 else (-1) ** j * comb(j - x - 1, j)


def _over_proj_space(v: ProjBundle) -> bool:
    """Where the chi walk stops: a P(E) over P^n, whose chi is closed."""
    return isinstance(v.base, ProjSpace)


@lru_cache(maxsize=1024)
def _chi_coefficients(summands: tuple, n: int) -> tuple:
    """Columns ``(c[0][j], ..., c[j][j])``, j = 0..n, of c[M][j] = [w^M u^j]
    prod_i 1/(1 - w t_i) for the summands O(s_i) of E over P^n, where t_i =
    (1 + u)^(s_i) - 1: its u^j coefficient is C(s_i, j) and its u^0 one is
    0, so c[M][j] = 0 for j < M.  Each factor is the recurrence c[M] += t_i
    c[M - 1], M ascending, with u-degrees above n dropped: O(rank n^3)
    integer work, once per E and n.
    """
    c = [[1] + [0] * n] + [[0] * (n + 1) for _ in range(n)]
    for (s,) in summands:
        t = [_binomial(s, j) for j in range(n + 1)]
        for m in range(1, n + 1):
            prev, row = c[m - 1], c[m]
            for j in range(m, n + 1):
                row[j] += sum(t[i] * prev[j - i] for i in range(1, j - m + 2))
    return tuple(tuple(row[j] for row in c[:j + 1]) for j in range(n + 1))


def _line_chi(v: Variety, coords: tuple) -> int:
    """chi of O(coords) on a variety where the chi walk stops.

    On P(E) over P^n, E = O(s_1) + ... + O(s_rho), the Riemann-Roch
    polynomial of O(a + kH): for k >= 0, chi is the sum of m_e C(x + e, n)
    over the twists e of Sym^k E, x = a + n, and by Vandermonde C(x + e, n)
    is the sum of C(x, n - j) C(e, j); the sum of m_e (1 + u)^e is [z^k] of
    prod_i 1/(1 - z (1 + t_i)) = (1 - z)^-rho prod_i 1/(1 - w t_i), w = z/(1
    - z), and [z^k] (1 - z)^-rho w^M = C(k + rho - 1, rho - 1 + M), so

        chi = sum_j C(x, n - j) sum_{M <= j} C(k + rho - 1, rho - 1 + M) c[M][j]

    with the c of ``_chi_coefficients``.  Both sides are polynomials in (a,
    k), so this holds for every k, the dead band and k <= -rho included;
    on P^1 it reads C(k + rho - 1, rho - 1)(a + 1) + c1(E) C(k + rho - 1,
    rho).
    """
    if isinstance(v, ProjSpace):
        return _binomial(coords[0] + v.n, v.n)
    if isinstance(v, GenericCurve):
        raise GenericModeUnsupported(
            "euler_characteristic is exact-mode only; generic curves are excluded")
    if isinstance(v, ProjBundle):
        (a, k), summands, n = coords, v.summand_coords, v.base.n
        y, r = k + len(summands) - 1, len(summands) - 1
        b = _binomial(y, r)
        fibre = [b]  # C(y, r + M), M = 0..n
        for m in range(r, r + n):
            b = b * (y - m) // (m + 1)
            fibre.append(b)
        x, chi, base = a + n, 0, 1
        for i, col in enumerate(reversed(_chi_coefficients(summands, n))):
            chi += base * sum(map(mul, fibre, col))  # base = C(x, i), j = n - i
            base = base * (x - i) // (i + 1)
        return chi
    raise UnsupportedVariety(f"no chi polynomial for {v!r}")


def euler_characteristic(v: Variety, bundle) -> int:
    """chi from the closed Riemann-Roch polynomials of the line bundles.

    Always equal to the alternating sum of cohomology(v, bundle), and it
    refuses a bundle on another variety the same way.  On P^n and on every
    P(E) over P^n, F_r among them, the polynomial (``_line_chi``) shares no
    code with the tables.  On deeper towers it takes the merged walk of all
    the summands (``_tower_terms``) down to P^n or to a P(E) over P^n, where
    the tables' walk stops too, and replaces the closed table of each term
    at its bottom by the polynomial, so it checks the closed levels but
    not the walk (``toric_cech_oracle`` does, over P^n and towers over it).
    Towers over a curve walk down to the curve and are refused there.
    """
    base, terms = _tower_terms(v, start_terms(v, bundle), _over_proj_space)
    return sum((-1) ** s * m * _line_chi(base, e) for (s, e), m in terms.items())


# --------------------------------------------------------------------------
# toric Cech oracle
# --------------------------------------------------------------------------
#
# For a complete simplicial fan and D = sum a_rho D_rho, the degree-m part
# of H^p(X, O(D)) is the reduced cohomology H~^{p-1} of the subcomplex
# spanned, inside each cone, by the rays with <m, u_rho> + a_rho < 0
# (Cox-Little-Schenck, *Toric Varieties*, 9.1).  Summing the reduced Betti
# numbers per sign pattern over a provably large enough character box gives
# the full table.  The box comes from the arrangement's vertices: the
# matrix of each vertex system depends on the fan alone, so its scaled
# integer inverse (one Bareiss elimination, ``exactlinalg.solve_square``)
# is kept per process, and a request only multiplies it by its right-hand
# side and floors, in integers.  The fan complex of
# P^n or of a split tower over it is the join of its levels' simplex
# boundaries, so a pattern has reduced homology only when each level's rays
# are all negative or none is (Milnor, "Construction of universal bundles
# II", 1956; Munkres, *Elements of Algebraic Topology*, 62).  The scan
# counts those level-uniform patterns plane by plane: for a fixed m[:-2]
# and each row x = m[-2], a ray is negative on an interval of the last
# axis t = m[-1], so each level choice cuts each row down to one interval,
# and a mixed pattern is never visited.  How a ray cuts depends on its
# last two coordinates (b, c).  With c = 0 its sign is fixed along each
# row, so it keeps a window of row indices (the complement for the
# none-negative choice); with b = 0 != c it flips at one t for the whole
# plane, a scalar bound; only with b, c != 0 does it flip at a t of its
# own on each row, a list.  On P^n, F_r and P1xP1 each level has at most
# one such ray.

DEFAULT_CAP = 10 ** 6


def _check_cap(volume: int, cap: int | None, what: str = "box volume") -> None:
    """The one bound on scan work: box scans and the oracle's character
    box visit at most ``cap`` points, ``DEFAULT_CAP`` when it is None."""
    limit = DEFAULT_CAP if cap is None else cap
    if volume > limit:
        raise BoxTooLarge(f"{what} {volume} exceeds cap {limit}")


@lru_cache(maxsize=64)
def _toric_model(v: Variety):
    """``(rays, cones, rows, levels)`` of the fan of P^n or of a split tower
    over it: the maximal cones are sets of ray indices, coordinates c give
    the class sum_j <rows[j], c> D_j, and each level is ``(indices, dim)``,
    the rays of the base P^n (dim n) or of a fibre P^{rho-1} (dim rho - 1).
    P^n has the rays -(e_1 + ... + e_n), e_1, ..., e_n and h = D_0.
    P(O(D_0) + ... + O(D_{rho-1})) lifts each base ray u to (u, a_1(u) -
    a_0(u), ..., a_{rho-1}(u) - a_0(u)), a_i(u) the coefficient of D_i on
    u, and adds the rays of the fibre P^{rho-1}; its maximal cones are a
    lifted base cone plus a fibre cone, so the fan complex is the join of
    the levels' simplex boundaries, and (B, k) has coeffs(B) + k
    coeffs(D_0) on the lifted rays and k on the first fibre ray
    (Cox-Little-Schenck, *Toric Varieties*, 7.3).  Memoised per variety:
    the fan is built once, not on every oracle call.

    >>> from ulrichbundles import hirzebruch
    >>> _toric_model(hirzebruch(2))[::3]  # the rays and the levels
    (((-1, 2), (1, 0), (0, -1), (0, 1)), (((0, 1), 1), ((2, 3), 1)))
    """
    if isinstance(v, ProjSpace):
        n = v.n
        rays = ((-1,) * n,) + tuple(tuple(int(i == j) for j in range(n))
                                    for i in range(n))
        cones = tuple(frozenset(c) for c in itertools.combinations(range(n + 1), n))
        return rays, cones, ((1,),) + ((0,),) * n, ((tuple(range(n + 1)), n),)
    if not isinstance(v, ProjBundle):
        raise UnsupportedVariety(f"no fan for {v.name}")
    base_rays, base_cones, base_rows, base_levels = _toric_model(v.base)
    fibre_rays, fibre_cones, fibre_rows, _ = _toric_model(ProjSpace(v.rank - 1))
    # a[i][j]: coefficient of the i-th summand of E on base ray j
    a = [[sum(map(mul, row, s)) for row in base_rows] for s in v.summand_coords]
    rays = tuple(u + tuple(a_i[j] - a[0][j] for a_i in a[1:])
                 for j, u in enumerate(base_rays))
    rays += tuple((0,) * v.base.dim + w for w in fibre_rays)
    cones = tuple(cone | {len(base_rays) + f for f in fibre}
                  for cone in base_cones for fibre in fibre_cones)
    rows = tuple(row + (a[0][j],) for j, row in enumerate(base_rows))
    rows += tuple((0,) * v.base.picard_rank + row for row in fibre_rows)
    fibre_indices = tuple(range(len(base_rays), len(rays)))
    return rays, cones, rows, base_levels + ((fibre_indices, v.rank - 1),)


@lru_cache(maxsize=1 << 14)
def _vertex_system(rays, combo):
    """``(d, rows)`` for the vertex system of the rays at ``combo``: A =
    rays[combo], d = |det A| and ``rows`` = d * A^-1, so the vertex <m,
    rays[i]> = b_i (i in combo) is rows * b / d; None when A is singular.
    Memoised per system, for 2^14 of them: A depends on the fan alone, so
    every divisor on the fan reads the same entry."""
    n = len(combo)
    solved = exactlinalg.solve_square(
        [rays[i] for i in combo], [(0,) * j + (1,) + (0,) * (n - 1 - j) for j in range(n)])
    if solved is None:
        return None
    d, rows = solved
    return d, tuple(map(tuple, rows))  # shared by every caller: read-only


def _scan_bounds(rays, coeffs, dim, cap=None):
    """Per-axis ``(lo, hi)`` bounds covering every bounded sign-pattern region.

    A character contributing cohomology lies in a bounded region of the
    hyperplane arrangement <m, u_rho> = -a_rho, hence inside the convex
    hull of the arrangement vertices.  Each vertex is num / d, num = rows *
    rhs for its system's cached integer inverse (``_vertex_system``) and
    the right-hand side rhs = -coeffs[combo], so its floor and ceiling are
    integer divisions.  Two extra shells on each side give the zero
    boundary that the scan asserts.  The box grows with each vertex and is
    refused (BoxTooLarge) as soon as its volume exceeds ``cap``; the final
    box contains it, so the verdict is the same as after every vertex, and
    the volume reported is a lower bound.
    """
    lo = hi = None
    for combo in itertools.combinations(range(len(rays)), dim):
        system = _vertex_system(rays, combo)
        if system is None:
            continue
        d, rows = system
        rhs = [-coeffs[i] for i in combo]
        nums = [sum(map(mul, row, rhs)) for row in rows]
        down, up = [x // d for x in nums], [-(-x // d) for x in nums]
        if lo is not None:
            down, up = list(map(min, lo, down)), list(map(max, hi, up))
        if (down, up) != (lo, hi):
            lo, hi = down, up
            _check_cap(prod(b - a + 5 for a, b in zip(lo, hi)), cap,
                       "box volume at least")
    return [(a - 2, b + 2) for a, b in zip(lo, hi)]


@lru_cache(maxsize=64)
def _fan_patterns(rays, cones) -> dict:
    """The fan's memo {sign pattern mask: reduced Betti numbers}, filled by
    ``toric_cech_oracle`` as it meets each pattern; kept for 64 fans."""
    return {}


def _reduced_betti(cones, nrays, mask, dim):
    """Reduced Betti numbers, indexed so entry p is the contribution to h^p."""
    members = frozenset(i for i in range(nrays) if mask >> i & 1)
    if not members:
        return (1,) + (0,) * dim  # empty support: only H~^{-1}
    faces = set()
    for cone in cones:
        local = sorted(cone & members)
        for size in range(1, len(local) + 1):
            faces.update(itertools.combinations(local, size))
    by_dim: dict = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    for k in by_dim:
        by_dim[k].sort()
    max_k = max(by_dim)
    # boundary ranks of the augmented chain complex
    ranks = {0: 1}  # augmentation C_0 -> Q is onto for a nonempty complex
    for k in range(1, max_k + 1):
        rows = {f: i for i, f in enumerate(by_dim[k - 1])}
        matrix = [[0] * len(by_dim[k]) for _ in range(len(by_dim[k - 1]))]
        for col, f in enumerate(by_dim[k]):
            for i in range(len(f)):
                sub = f[:i] + f[i + 1:]
                matrix[rows[sub]][col] = (-1) ** i
        ranks[k] = exactlinalg.rank(matrix)
    contrib = [0] * (dim + 1)
    for k in range(0, max_k + 1):
        size = len(by_dim.get(k, []))
        betti = size - ranks.get(k, 0) - ranks.get(k + 1, 0)
        if k + 1 <= dim:
            contrib[k + 1] = betti
    return tuple(contrib)


def toric_cech_oracle(v: Variety, d: DivisorClass,
                      cap: int | None = None) -> CohomologyTable:
    """Independent recomputation of cohomology(v, O(d)) by levels.

    Works on P^n and every split tower over it (``_toric_model``).  For
    each prefix m[:-2] of the character box it walks the levels depth
    first, each level all negative or none negative, and keeps per row x
    = m[-2] the interval of the last axis t = m[-1] where every choice so
    far holds: a window of rows and an interval of t shared by every row,
    cut by the rays that read at most one of x and t, and per-row starts
    and stops only where a ray reads both.  A branch whose window or shared
    interval is empty is pruned.  A leaf is a level-uniform sign pattern;
    if a row is left, it adds the sum of its rows' intervals' lengths times
    the pattern's reduced Betti numbers.  P^1 is one row.  Each axis of the
    box spans at least five characters, so BoxTooLarge is raised before
    any work when 5^dim exceeds ``cap``, and while the vertices are read
    as soon as the box they span does.  Raises ScanBoxTooSmall, naming the
    first such character in scan order, if a contributing character lies
    on the boundary shell, which would mean the box bound is wrong (a hard
    engine failure, not a fact).  A divisor of another variety is refused
    by the oracle's own check, not the engine's.
    """
    if d.variety != v:
        raise UnsupportedVariety(f"oracle divisor is not on {v.name}")
    _check_cap(5 ** v.dim, cap)
    rays, cones, rows, levels = _toric_model(v)
    coeffs = [sum(map(mul, row, d.coords)) for row in rows]
    *lead, (lo, hi) = _scan_bounds(rays, coeffs, v.dim, cap)
    # P^1 is one row: a one-point second-to-last axis that no ray reads
    *outer, (x_lo, x_hi) = lead or [(0, 0)]
    xs = range(x_lo, x_hi + 1)
    rows_end, top = len(xs), hi + 1
    # the starts and stops of rows that no list has cut: a first list
    # replaces them as it is, as the leaves clip every row to [tb, te)
    lows, tops = [lo] * rows_end, [top] * rows_end
    # per level: its mask and its rays as (u[:-2], a, b, c), (b, c) = u[-2:]
    level_rays = [(sum(1 << i for i in members),
              [(rays[i][:-2], coeffs[i], rays[i][-2] if lead else 0, rays[i][-1])
               for i in members])
             for members, _ in levels]
    inner_edge = [False] * len(xs)
    if lead:
        inner_edge[0] = inner_edge[-1] = True
    patterns = _fan_patterns(rays, cones)
    h = [0] * (v.dim + 1)
    for prefix in itertools.product(*(range(a, b + 1) for a, b in outer)):
        edge = ([True] * len(xs) if any(x in bound for x, bound in zip(prefix, outer))
                else inner_edge)
        # a ray is negative at (prefix, x, t) iff s + b x + c t < 0, with s
        # = <prefix, u[:-2]> + a.  When c = 0 its sign is fixed along each
        # row: it is negative on the row indices before a cut (b > 0, or b
        # = 0 and s < 0) or from the cut on (b < 0), a window.  Otherwise it
        # is negative for t < flip (c > 0, a "down" ray) or for t >= flip
        # (c < 0, an "up" ray), with one flip for the plane when b = 0 and a
        # list of flips, one per row, only when b != 0.
        level_cuts = []
        for bits, members in level_rays:
            # all negative: rows [n0, n1) and t in [nb, ne), then the up
            # lists raise each row's start and the down lists lower its
            # stop; none negative: p0, p1, pb, pe, and the other way round
            n0, n1, nb, ne = p0, p1, pb, pe = 0, rows_end, lo, top
            down, up = [], []
            for u, a, b, c in members:
                s = sum(map(mul, prefix, u)) + a
                if c == 0:
                    if b < 0:
                        cut = s // -b + 1 - x_lo
                        n0, p1 = max(n0, cut), min(p1, cut)
                    else:
                        cut = -(s // b) - x_lo if b else rows_end * (s < 0)
                        n1, p0 = min(n1, cut), max(p0, cut)
                elif b == 0:
                    if c > 0:
                        flip = -(s // c)
                        ne, pb = min(ne, flip), max(pb, flip)
                    else:
                        flip = s // -c + 1
                        nb, pe = max(nb, flip), min(pe, flip)
                elif c > 0:
                    down.append([-((s + b * x) // c) for x in xs])
                else:
                    up.append([(s + b * x) // -c + 1 for x in xs])
            level_cuts.append(((bits, n0, n1, nb, ne, up, down),
                               (0, p0, p1, pb, pe, down, up)))
        first = None  # (row, t, contrib) of the first contributing shell character
        stack = [(0, 0, 0, rows_end, lo, top, lows, tops)]
        while stack:
            j, mask, r0, r1, tb, te, starts, stops = stack.pop()
            if j < len(level_cuts):
                for bits, w0, w1, b0, e0, rise, fall in level_cuts[j]:
                    c0, c1, cb, ce = max(r0, w0), min(r1, w1), max(tb, b0), min(te, e0)
                    if c0 >= c1 or cb >= ce:
                        continue
                    begin, end = starts, stops
                    for flips in rise:
                        begin = flips if begin is lows else [
                            a if a > f else f for a, f in zip(begin, flips)]
                    for flips in fall:
                        end = flips if end is tops else [
                            b if b < f else f for b, f in zip(end, flips)]
                    stack.append((j + 1, mask | bits, c0, c1, cb, ce, begin, end))
                continue
            spans = [(i, a, b) for i, a, b in zip(
                         range(r0, r1),
                         [a if a > tb else tb for a in starts[r0:r1]],
                         [b if b < te else te for b in stops[r0:r1]]) if a < b]
            if not spans:
                continue
            contrib = patterns.get(mask)
            if contrib is None:
                contrib = patterns[mask] = _reduced_betti(cones, len(rays), mask, v.dim)
            count = sum([b - a for _, a, b in spans])
            for p, betti in enumerate(contrib):
                h[p] += count * betti
            hit = next(((i, a if edge[i] or a == lo else hi) for i, a, b in spans
                        if edge[i] or a == lo or b == top), None)
            if hit and (first is None or hit < first[:2]):
                first = hit + (contrib,)
        if first:
            i, t, contrib = first
            m = prefix + (xs[i],) * bool(lead) + (t,)
            raise ScanBoxTooSmall(f"character {m} on the scan shell contributes {contrib}")
    return CohomologyTable.make(h)
