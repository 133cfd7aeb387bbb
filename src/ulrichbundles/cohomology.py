"""Exact sheaf cohomology of split bundles on the supported varieties.

Three ingredients:

* closed line-bundle tables on P^n and on generic curves,
* the projection-formula branches for P(E) -> X over any supported base,
  a P(E) such as F_r included: for O(pullback(B) + kH) the derived
  pushforward is Sym^k(E)(B) in degree 0 when k >= 0, zero in the dead
  band -rank < k < 0, and dual(Sym^{-k-rank}E)(B - c1(E)) in degree
  rank-1 when k <= -rank.  ``pushforward_terms`` alone knows these
  branches; it counts the base twists with their multiplicities instead
  of enumerating Sym^k,
* an independent combinatorial Cech oracle on small toric targets which
  recomputes tables character by character.

chi (``euler_characteristic``) is a closed polynomial on P^n and on every
P(E) over P^1, F_r included; elsewhere on P(E) it shares
``pushforward_terms`` with the tables.  The Ulrich criterion enumerates
Sym^k with ``picard.sym_power`` instead, so the direct check on P(E) and
the criterion expand the pushforward in two different ways.  The oracle
shares no code with either.

All values are exact integers; generic-curve answers are flagged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from math import comb, factorial, prod
from operator import add

from . import exactlinalg
from .errors import GenericModeUnsupported, ScanBoxTooSmall, UnsupportedVariety
from .picard import (
    DivisorClass,
    GenericCurve,
    ProjBundle,
    ProjSpace,
    SplitBundle,
    Variety,
    hirzebruch_parameter,
)


@dataclass(frozen=True)
class CohomologyTable:
    """Dimensions h^0..h^dim, their alternating sum, and a genericity flag."""

    h: tuple
    chi: int
    generic: bool = False

    @classmethod
    def make(cls, h, generic: bool = False) -> "CohomologyTable":
        h = tuple(int(x) for x in h)
        if any(x < 0 for x in h):
            raise AssertionError(f"negative cohomology dimension in {h}")
        chi = sum((-1) ** i * x for i, x in enumerate(h))
        return cls(h, chi, generic)

    @classmethod
    def zero(cls, dim: int, generic: bool = False) -> "CohomologyTable":
        return cls((0,) * (dim + 1), 0, generic)

    def __add__(self, other: "CohomologyTable") -> "CohomologyTable":
        if len(self.h) != len(other.h):
            raise AssertionError("adding tables of different dimensions")
        return CohomologyTable.make(
            tuple(a + b for a, b in zip(self.h, other.h)),
            self.generic or other.generic)

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
    return CohomologyTable.zero(n)


def _curve_line(g: int, d: int) -> CohomologyTable:
    # Brill-Noether-general table: h^0 = max(0, chi) with chi = d - g + 1
    chi = d - g + 1
    h0 = max(0, chi)
    return CohomologyTable.make((h0, h0 - chi), generic=True)


def _line_table(v: Variety, coords: tuple) -> CohomologyTable:
    if isinstance(v, ProjSpace):
        return _proj_space_line(v.n, coords[0])
    if isinstance(v, GenericCurve):
        return _curve_line(v.genus, coords[0])
    if isinstance(v, ProjBundle):
        return pushforward_table(v.dim, v.summand_coords, coords[:-1], coords[-1],
                                 partial(_line_table, v.base))
    raise UnsupportedVariety(f"no cohomology rule for {v!r}")


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


def pushforward_table(dim: int, summands: tuple, b_coords: tuple, k: int,
                      base_table) -> CohomologyTable:
    """Table on the dim-dimensional P(E) of pullback(F)(pullback(B) + kH).

    ``base_table(twist)`` returns the base table of F(twist); see
    ``pushforward_terms`` for the other arguments.
    """
    shift, terms = pushforward_terms(summands, b_coords, k)
    h = [0] * (dim + 1)
    generic = False
    for twist, mult in terms.items():
        part = base_table(twist)
        generic = generic or part.generic
        for i, x in enumerate(part.h):
            h[i + shift] += mult * x
    return CohomologyTable.make(h, generic)


def cohomology(v: Variety, bundle) -> CohomologyTable:
    """Cohomology table of a split bundle (or single divisor class) on v."""
    if isinstance(bundle, DivisorClass):
        bundle = SplitBundle(v, (bundle,))
    if bundle.variety != v:
        raise UnsupportedVariety("bundle does not live on the given variety")
    table = CohomologyTable.zero(v.dim)
    for s in bundle.summands:
        table = table + _line_table(v, s.coords)
    return table


def hom_complex_dims(v: Variety, e1: SplitBundle, e2: SplitBundle) -> CohomologyTable:
    """Dimensions of Hom^*(E1, E2) = H^*(dual(E1) x E2) for split bundles."""
    return cohomology(v, e1.dual().tensor(e2))


# --------------------------------------------------------------------------
# Euler characteristics from closed polynomials
# --------------------------------------------------------------------------

def _binomial(x: int, j: int) -> int:
    """C(x, j) = x (x-1) ... (x-j+1) / j! read as a polynomial in x."""
    return prod(range(x - j + 1, x + 1)) // factorial(j)


def _line_chi(v: Variety, coords: tuple) -> int:
    if isinstance(v, ProjSpace):
        return _binomial(coords[0] + v.n, v.n)
    if isinstance(v, GenericCurve):
        raise GenericModeUnsupported(
            "euler_characteristic is exact-mode only; generic curves are excluded")
    if isinstance(v, ProjBundle):
        if isinstance(v.base, ProjSpace) and v.base.n == 1:
            # Riemann-Roch: C(k+rho-1, rho-1)(a+1) + c1(E) C(k+rho-1, rho)
            (a, k), rho = coords, v.rank
            c1 = sum(s for (s,) in v.summand_coords)
            return (_binomial(k + rho - 1, rho - 1) * (a + 1)
                    + c1 * _binomial(k + rho - 1, rho))
        shift, terms = pushforward_terms(v.summand_coords, coords[:-1], coords[-1])
        return (-1) ** shift * sum(mult * _line_chi(v.base, e)
                                   for e, mult in terms.items())
    raise UnsupportedVariety(f"no chi polynomial for {v!r}")


def euler_characteristic(v: Variety, bundle) -> int:
    """chi from the closed Riemann-Roch polynomials of the line bundles.

    Always equal to the alternating sum of cohomology(v, bundle).  On P^n
    and on every P(E) over P^1, F_r among them, the polynomial shares no
    code with the tables.  Over other bases it shares the expansion of
    ``pushforward_terms`` with them and only replaces each base table by
    its polynomial, so it checks the base tables but not the expansion.
    """
    if isinstance(bundle, DivisorClass):
        bundle = SplitBundle(v, (bundle,))
    return sum(_line_chi(v, s.coords) for s in bundle.summands)


# --------------------------------------------------------------------------
# toric Cech oracle
# --------------------------------------------------------------------------
#
# For a complete simplicial fan and D = sum a_rho D_rho, the degree-m part
# of H^p(X, O(D)) is the reduced cohomology H~^{p-1} of the subcomplex
# spanned, inside each cone, by the rays with <m, u_rho> + a_rho < 0.
# Scanning a provably large enough character box and summing the reduced
# Betti numbers per sign pattern gives the full table.

def _fan(v: Variety):
    if isinstance(v, ProjSpace):
        if v.n > 3:
            raise UnsupportedVariety("oracle supports P^n only for n <= 3")
        n = v.n
        rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        rays.append(tuple(-1 for _ in range(n)))
        cones = [frozenset(c) for c in itertools.combinations(range(n + 1), n)]
        return rays, cones, n
    if (r := hirzebruch_parameter(v)) is not None:
        if r > 4:
            raise UnsupportedVariety("oracle supports F_r only for r <= 4")
        rays = [(1, 0), (0, 1), (-1, r), (0, -1)]
        cones = [frozenset(p) for p in ((0, 1), (1, 2), (2, 3), (3, 0))]
        return rays, cones, 2
    raise UnsupportedVariety(f"no fan for {getattr(v, 'name', v)!r}")


def _ray_coefficients(v: Variety, d: DivisorClass):
    if isinstance(v, ProjSpace):
        return (d.coords[0],) + (0,) * v.n
    if hirzebruch_parameter(v) is not None:
        return (d.coords[0], 0, 0, d.coords[1])  # f = D_(1,0), C+ = D_(0,-1)
    raise UnsupportedVariety("oracle coefficients undefined")


def _scan_bounds(rays, coeffs, dim):
    """Per-axis bounds covering every bounded sign-pattern region.

    A character contributing cohomology lies in a bounded region of the
    hyperplane arrangement <m, u_rho> = -a_rho, hence inside the convex
    hull of the arrangement vertices.  Two extra shells give the zero
    boundary that the scan asserts.
    """
    vertices = []
    for combo in itertools.combinations(range(len(rays)), dim):
        matrix = [list(rays[i]) for i in combo]
        rhs = [-coeffs[i] for i in combo]
        sol = exactlinalg.solve_square(matrix, rhs)
        if sol is not None:
            vertices.append(sol)
    bounds = []
    for axis in range(dim):
        extent = max((abs(vtx[axis]) for vtx in vertices), default=Fraction(0))
        bounds.append(int(extent.__ceil__()) + 2)
    return bounds


_PATTERN_CACHE: dict = {}


def _reduced_betti(fan_key, cones, nrays, mask, dim):
    """Reduced Betti numbers, indexed so entry p is the contribution to h^p."""
    cached = _PATTERN_CACHE.get((fan_key, mask))
    if cached is not None:
        return cached
    members = frozenset(i for i in range(nrays) if mask >> i & 1)
    if not members:
        contrib = (1,) + (0,) * dim  # empty support: only H~^{-1}
        _PATTERN_CACHE[(fan_key, mask)] = contrib
        return contrib
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
    _PATTERN_CACHE[(fan_key, mask)] = tuple(contrib)
    return tuple(contrib)


def toric_cech_oracle(v: Variety, d: DivisorClass) -> CohomologyTable:
    """Independent character-by-character recomputation of cohomology(v, O(d)).

    Supported fans: P^n with n <= 3, F_r with r <= 4 and P^1 x P^1.
    Raises ScanBoxTooSmall if a boundary-shell character contributes, which
    would mean the box bound is wrong (a hard engine failure, not a fact).
    """
    rays, cones, dim = _fan(v)
    coeffs = _ray_coefficients(v, d)
    bounds = _scan_bounds(rays, coeffs, dim)
    fan_key = (getattr(v, "name", str(v)),)
    h = [0] * (dim + 1)
    axes = [range(-b, b + 1) for b in bounds]
    for m in itertools.product(*axes):
        mask = 0
        for i, u in enumerate(rays):
            if sum(mi * ui for mi, ui in zip(m, u)) + coeffs[i] < 0:
                mask |= 1 << i
        contrib = _reduced_betti(fan_key, cones, len(rays), mask, dim)
        if any(contrib):
            if any(abs(mi) == b for mi, b in zip(m, bounds)):
                raise ScanBoxTooSmall(
                    f"character {m} on the scan shell contributes {contrib}")
            for p, x in enumerate(contrib):
                h[p] += x
    return CohomologyTable.make(h)
