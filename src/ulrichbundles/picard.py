"""Varieties, Picard-lattice arithmetic and split-bundle algebra.

Supported varieties and their divisor coordinates:

=============  =============================  =========================
variety        Picard basis                   coordinates
=============  =============================  =========================
P^n            hyperplane h                   (d)
generic curve  a point                        (degree)
P(E) -> X      base classes, then H           base coords + (k)
F_r            fibre f, section C+ (C+^2=r)   (a, b) meaning a*f + b*C+
P^1 x P^1      the two rulings f, f'          (a, b); same as F_0
=============  =============================  =========================

F_r is P(O + O(r)) over P^1 (``hirzebruch(r)``), so (f, C+) are its
(base, H) coordinates; the base of a P(E) may be a P(E) itself.  The
section ``C-`` with square ``-r`` satisfies ``C+ = r*f + C-``; the minus
basis is accepted on input only (``parse_divisor(minus_basis=True)``).

Everything here is an immutable value; all operations are pure functions.

``parse_variety`` interns: each distinct variety text (whitespace
removed) is parsed once per process, and every later request naming it
gets the same object, the base of a tower included.  Sharing is safe
because the varieties are frozen dataclasses whose only writes after
construction fill ``cached_property`` values (``ProjBundle.dim``,
``picard_rank``, ``summand_coords``, ``SplitBundle.c1``), which are
functions of the fields; so each of those is also computed once per
variety, and no request can change what another one sees.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import comb
from typing import Union

from .errors import NotAmple, ParseError, UnsupportedPolarisation, UnsupportedVariety


# --------------------------------------------------------------------------
# variety descriptors
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjSpace:
    """Projective space P^n, Picard rank one."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise UnsupportedVariety(f"P^n needs n >= 1, got {self.n}")

    @property
    def dim(self) -> int:
        return self.n

    @property
    def picard_rank(self) -> int:
        return 1

    @property
    def name(self) -> str:
        return f"P{self.n}"


@dataclass(frozen=True)
class GenericCurve:
    """A general smooth projective curve of genus g.

    Cohomology answers on this variety describe a *general* line bundle of
    the given degree and are flagged as such downstream.
    """

    genus: int

    def __post_init__(self):
        if self.genus < 0:
            raise UnsupportedVariety(f"curve genus must be >= 0, got {self.genus}")

    @property
    def dim(self) -> int:
        return 1

    @property
    def picard_rank(self) -> int:
        return 1

    @property
    def name(self) -> str:
        return f"C{self.genus}"


@dataclass(frozen=True)
class DivisorClass:
    """Integer coordinate vector in the fixed Picard basis of a variety.

    The variety is compared but not hashed (nor is a split bundle's): a
    tower hashes its base once, not again through every summand, so a
    hash takes time linear in the depth of the tower.
    """

    variety: "Variety" = field(hash=False)
    coords: tuple

    def __post_init__(self):
        coords = tuple(int(c) for c in self.coords)
        object.__setattr__(self, "coords", coords)
        if len(coords) != self.variety.picard_rank:
            raise UnsupportedVariety(
                f"{self.variety.name} divisors have {self.variety.picard_rank} "
                f"coordinates, got {coords}")

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._same_variety(other)
        return DivisorClass(self.variety,
                            tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._same_variety(other)
        return DivisorClass(self.variety,
                            tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.variety, tuple(-a for a in self.coords))

    def __rmul__(self, k: int) -> "DivisorClass":
        return DivisorClass(self.variety, tuple(k * a for a in self.coords))

    def _same_variety(self, other):
        if self.variety != other.variety:
            raise UnsupportedVariety(
                f"divisor arithmetic across varieties: "
                f"{self.variety.name} vs {other.variety.name}")

    def __str__(self) -> str:
        return render_divisor(self)


@dataclass(frozen=True)
class SplitBundle:
    """A direct sum of line bundles, kept as an ordered tuple of classes."""

    variety: "Variety" = field(hash=False)
    summands: tuple

    def __post_init__(self):
        if not self.summands:
            raise UnsupportedVariety("split bundle needs at least one summand")
        summands = tuple(self.summands)
        object.__setattr__(self, "summands", summands)
        for s in summands:
            if not isinstance(s, DivisorClass) or s.variety != self.variety:
                raise UnsupportedVariety("all summands must live on the same variety")

    @property
    def rank(self) -> int:
        return len(self.summands)

    @cached_property
    def c1(self) -> DivisorClass:
        total = zero_divisor(self.variety)
        for s in self.summands:
            total = total + s
        return total

    def dual(self) -> "SplitBundle":
        return SplitBundle(self.variety, tuple(-s for s in self.summands))

    def twist(self, d: DivisorClass) -> "SplitBundle":
        return SplitBundle(self.variety, tuple(s + d for s in self.summands))

    def multiset(self) -> tuple:
        """Canonical (sorted) tuple of coordinate tuples."""
        return tuple(sorted(s.coords for s in self.summands))

    def same_summands(self, other: "SplitBundle") -> bool:
        return self.variety == other.variety and self.multiset() == other.multiset()

    def __str__(self) -> str:
        return render_bundle(self)


@dataclass(frozen=True)
class ProjBundle:
    """Projective bundle P(E) -> X for a split bundle E on a supported base.

    The base may be a P(E) itself, e.g. the Bott 3-folds P(O + O(D)) -> F_r.
    """

    base: "Variety"
    summands: SplitBundle

    def __post_init__(self):
        if self.summands.variety != self.base:
            raise UnsupportedVariety("bundle summands must live on the base")
        if self.summands.rank < 2:
            raise UnsupportedVariety("P(E) needs rank(E) >= 2")

    def __eq__(self, other):
        # the base once, then the summands' coordinates: the summands live
        # on the base (``__post_init__``), and comparing their varieties
        # again at every level would make a tower's comparison exponential
        # in its depth.  The hash stays the fields' hash, which agrees.
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (self.base == other.base
                                 and self.summand_coords == other.summand_coords)

    @property
    def rank(self) -> int:
        return self.summands.rank

    @cached_property
    def dim(self) -> int:
        return self.base.dim + self.rank - 1

    @cached_property
    def picard_rank(self) -> int:
        return self.base.picard_rank + 1

    @cached_property
    def summand_coords(self) -> tuple:
        """The coordinate tuples of the summands of E, in order."""
        return tuple(s.coords for s in self.summands.summands)

    @property
    def name(self) -> str:
        return render_variety(self)


Variety = Union[ProjSpace, GenericCurve, ProjBundle]

_P1 = ProjSpace(1)


def hirzebruch(r: int) -> ProjBundle:
    """F_r = P(O + O(r)) over P^1; normalise F_-r to F_r before calling."""
    if r < 0:
        raise UnsupportedVariety(
            f"Hirzebruch parameter must be >= 0 (F_r = F_-r), got {r}")
    return ProjBundle(_P1, SplitBundle(_P1, (DivisorClass(_P1, (0,)),
                                             DivisorClass(_P1, (r,)))))


P1xP1 = hirzebruch(0)


def hirzebruch_parameter(v: Variety) -> int | None:
    """r when v is exactly hirzebruch(r), i.e. P(O + O(r)) over P^1 with
    the summands [0], [r] in that order; None for every other variety."""
    if (isinstance(v, ProjBundle) and v.base == _P1 and v.rank == 2
            and v.summand_coords[0] == (0,) and v.summand_coords[1][0] >= 0):
        return v.summand_coords[1][0]
    return None


def zero_divisor(v: Variety) -> DivisorClass:
    return DivisorClass(v, (0,) * v.picard_rank)


def line_bundle(v: Variety, coords) -> SplitBundle:
    return SplitBundle(v, (DivisorClass(v, tuple(coords)),))


# --------------------------------------------------------------------------
# canonical classes and symmetric powers
# --------------------------------------------------------------------------

def canonical_class(v: Variety) -> DivisorClass:
    """K_V in the fixed basis.

    K_{P^n} = -(n+1)h, a genus-g curve has deg K = 2g-2, and
    K_{P(E)} = pullback(K_X + c1(E)) - rank(E)*H ((r-2)f - 2C+ on F_r).
    """
    if isinstance(v, ProjSpace):
        return DivisorClass(v, (-v.n - 1,))
    if isinstance(v, GenericCurve):
        return DivisorClass(v, (2 * v.genus - 2,))
    if isinstance(v, ProjBundle):
        down = canonical_class(v.base) + v.summands.c1
        return DivisorClass(v, down.coords + (-v.rank,))
    raise UnsupportedVariety(f"no canonical class for {v!r}")


def sym_power(e: SplitBundle, k: int) -> SplitBundle:
    """k-th symmetric power of a split bundle as a multiset of sums.

    Sym^k(+O(D_i)) = +O(D_{i_1} + ... + D_{i_k}) over weakly increasing
    index tuples, so the result has C(rank+k-1, k) summands.
    """
    if k < 0:
        raise ValueError(f"symmetric power needs k >= 0, got {k}")
    v = e.variety
    if k == 0:
        return SplitBundle(v, (zero_divisor(v),))
    parts = []
    for combo in itertools.combinations_with_replacement(e.summands, k):
        total = zero_divisor(v)
        for s in combo:
            total = total + s
        parts.append(total)
    bundle = SplitBundle(v, tuple(parts))
    assert bundle.rank == comb(e.rank + k - 1, k)
    return bundle


# --------------------------------------------------------------------------
# ampleness
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AmpleVerdict:
    """Boolean verdict plus a flag for sufficiency-only criteria.

    On generic curves only the degree >= 2g+1 bound is available; a True
    verdict is then exact but a False one merely means "not established",
    and ``sufficient_only`` records that caveat.
    """

    very_ample: bool
    sufficient_only: bool = False

    def __bool__(self) -> bool:
        return self.very_ample


def is_ample(v: Variety, d: DivisorClass) -> bool:
    """Exact ampleness test.

    On a curve a divisor is ample iff its degree is positive.  On P(E) with
    E split, pullback(B) + kH is ample iff k >= 1 and B + k*s_i is ample on
    the base for every summand s_i; on F_r that reads a >= 1, b >= 1.
    """
    _, twists = _root_twists(v, d)
    return twists is not None and all(c[0] >= 1 for c in twists)


def is_very_ample(v: Variety, d: DivisorClass) -> AmpleVerdict:
    """Very-ampleness test; see AmpleVerdict for the generic-curve caveat.

    On toric varieties (P^n and split P(E) towers over it) very ample is
    ample, so P(E) tests the twists B + k*s_i of ``is_ample`` very ample on
    the base.  Over a curve, at any depth, only k = 1 is supported.
    """
    root, twists = _root_twists(v, d)
    if isinstance(root, GenericCurve):
        return AmpleVerdict(all(c[0] >= 2 * root.genus + 1 for c in twists),
                            sufficient_only=True)
    return AmpleVerdict(twists is not None and all(c[0] >= 1 for c in twists))


def _root_twists(v: Variety, d: DivisorClass):
    """``(root, twists)``: the root of the tower v and the distinct
    coordinates that d = pullback(B) + kH reaches there through the twists
    B + k*s_i, level by level; twists is None when some level has k < 1.

    Over a curve, whose very-ampleness bound does not scale with k, only
    k = 1 is supported at every level.
    """
    if not isinstance(d, DivisorClass) or d.variety != v:
        raise UnsupportedVariety("divisor not on the given variety")
    level, ks = {d.coords}, set()
    while isinstance(v, ProjBundle):
        ks.update(c[-1] for c in level)
        level = {tuple(b + c[-1] * x for b, x in zip(c[:-1], s))
                 for c in level for s in v.summand_coords}
        v = v.base
    if isinstance(v, GenericCurve) and ks - {1}:
        raise UnsupportedPolarisation(
            f"only polarisations pullback(A) + H are supported on P(E) "
            f"over a curve; got H-coefficient {min(ks - {1})}")
    return v, (None if ks and min(ks) < 1 else level)


def very_ample_threshold(v: ProjBundle, direction: DivisorClass) -> int:
    """Least t >= 1 such that pullback(t * direction) + H is very ample.

    The direction is checked ample first, so every twist that
    ``is_very_ample`` tests is affine in t with a slope >= 1 and the
    verdict is monotone in t."""
    if not isinstance(v, ProjBundle):
        raise UnsupportedVariety("threshold is defined for projective bundles")
    if direction.variety != v.base:
        raise UnsupportedVariety("direction must be a base divisor")
    if not is_ample(v.base, direction):
        raise NotAmple(f"direction {direction} is not ample on {v.base.name}")

    def very_ample(t):
        return bool(is_very_ample(v, DivisorClass(
            v, tuple(t * c for c in direction.coords) + (1,))))

    # the least very ample t lies in (lo, hi]: double hi, then bisect
    lo, hi = 0, 1
    while not very_ample(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if very_ample(mid) else (mid, hi)
    return hi


def minimal_ample_direction(v: Variety) -> DivisorClass:
    """The all-ones class, checked by ``is_ample``; used as the default
    search direction."""
    d = DivisorClass(v, (1,) * v.picard_rank)
    if not is_ample(v, d):
        raise UnsupportedVariety(f"the all-ones class is not ample on {v.name}")
    return d


# --------------------------------------------------------------------------
# shared input grammar
# --------------------------------------------------------------------------
#
#   variety := "P"INT | "F"INT | "P1xP1" | "C"INT | "PB(" variety ";" divisor ("," divisor)* ")"
#   divisor := "[" INT ("," INT)* "]"
#   bundle  := divisor | "{" divisor ("," divisor)* "}"
#
# F<r> and P1xP1 name PB(P1;[0],[r]) and PB(P1;[0],[0]).  A PB base may be
# a PB, so the base ends at the first ';' outside parentheses.

_DIVISOR_RE = re.compile(r"\[(-?\d+(?:,-?\d+)*)\]")


def parse_variety(text: str) -> Variety:
    """The variety that ``text`` names, interned by its text without
    whitespace: every call on the same text (``PB(P1; [0],[1])`` and
    ``PB(P1;[0],[1])`` alike) returns the same immutable object, parsed
    on the first call, and so does the base of a tower.  The memo keeps
    the 256 texts used last.  Errors are not memoised: a bad text
    raises the same ParseError, naming the text as given, on every call.
    """
    key = "".join(text.split())
    try:
        return _intern_variety(key)
    except _Unparsable as err:
        raise ParseError(str(err).format(text)) from None


class _Unparsable(Exception):
    """A variety text off the grammar at its top level; the message is a
    template that ``parse_variety`` fills with the text as given."""


@lru_cache(maxsize=256)
def _intern_variety(s: str) -> Variety:
    if not s:
        raise ParseError("empty variety expression")
    if s == "P1xP1":
        return P1xP1
    m = re.fullmatch(r"P(-?\d+)", s)
    if m:
        return ProjSpace(int(m.group(1)))
    m = re.fullmatch(r"F(-?\d+)", s)
    if m:
        return hirzebruch(int(m.group(1)))
    m = re.fullmatch(r"C(-?\d+)", s)
    if m:
        return GenericCurve(int(m.group(1)))
    if s.startswith("PB(") and s.endswith(")"):
        inner = s[3:-1]
        parts = _split_top(inner, ";")
        if len(parts) < 2:
            raise _Unparsable("PB(...) needs 'base;divisors': {!r}")
        base = parse_variety(parts[0])
        rest = inner[len(parts[0]) + 1:]
        divisors = tuple(parse_divisor(part, base) for part in _split_top(rest, ","))
        return ProjBundle(base, SplitBundle(base, divisors))
    raise _Unparsable("cannot parse variety {!r}")


def _split_top(text: str, sep: str):
    """Split on the separator where it is outside [...] and (...) groups."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "[(":
            depth += 1
        elif ch in "])":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return parts


def parse_divisor(text: str, v: Variety, minus_basis: bool = False) -> DivisorClass:
    s = "".join(text.split())
    m = _DIVISOR_RE.fullmatch(s)
    if not m:
        raise ParseError(f"cannot parse divisor {text!r}")
    coords = tuple(int(x) for x in m.group(1).split(","))
    r = hirzebruch_parameter(v) if minus_basis else None
    if r is not None and len(coords) == 2:
        a, b = coords
        coords = (a - r * b, b)  # a*f + b*C-  ->  (a - r*b)*f + b*C+
    return DivisorClass(v, coords)


def parse_bundle(text: str, v: Variety, minus_basis: bool = False) -> SplitBundle:
    s = "".join(text.split())
    if s.startswith("{") and s.endswith("}"):
        parts = _split_top(s[1:-1], ",")
        if not parts:
            raise ParseError(f"empty bundle {text!r}")
        return SplitBundle(v, tuple(parse_divisor(p, v, minus_basis) for p in parts))
    return SplitBundle(v, (parse_divisor(s, v, minus_basis),))


def render_divisor(d: DivisorClass) -> str:
    return "[" + ",".join(str(c) for c in d.coords) + "]"


def render_bundle(e: SplitBundle) -> str:
    if e.rank == 1:
        return render_divisor(e.summands[0])
    return "{" + ",".join(render_divisor(s) for s in e.summands) + "}"


def render_variety(v: Variety) -> str:
    if (r := hirzebruch_parameter(v)) is not None:
        return "P1xP1" if r == 0 else f"F{r}"
    if isinstance(v, ProjBundle):
        return ("PB(" + render_variety(v.base) + ";"
                + ",".join(render_divisor(s) for s in v.summands.summands) + ")")
    return v.name
