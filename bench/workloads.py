"""Seeded request lists for the four benchmark workloads.

Every workload is a fixed skeleton of *slots*.  A slot fixes what drives
the cost of a request (command, variety family, box radius, Sym power,
section-map shape, character-box size) and owns a small pool of
``VARIANTS`` concrete argv lists that differ only in what does not move
the cost much (which base, which summands, which twist sign, which random
matrix seed).  ``requests(workload, seed)`` picks one variant per slot
and shuffles the order, so the list is a pure function of the seed, two
seeds give different lists, and every seed carries the same amount of
work.  Because the pools are finite, ``references/<workload>.json`` can
hold the expected exit code and stdout digest of every request any seed
can produce (see ``record_references.py``).

Each request carries its size, computed from closed forms before it is
emitted: the lattice-box volume of a scan, the number C(rho+p-1, p) of
Sym terms of a pushforward, the rows x cols of the section-map rank of a
kernel twist, the number of characters an oracle scan visits.  The caps
below keep any single request to a few percent of a pass (timings from a
2-core x86 host running Python 3.11):

* ``MAX_SCAN_POINTS`` (700): ``enum-zero F3 --box 12`` (625 points) takes
  about 0.06 s; the per-point cost grows with the radius on F_r, and
  ``--box 30`` (3721 points) takes 1.5 s.
* ``MAX_SYM_WORK`` (10000): Sym terms times the per-term cost of the base
  table (1 on P^n and curves, 1 + the largest C+ coefficient on F_r).
  Rank 5 at p = 19 (8855 terms) takes about 0.2 s;
  ``coh PB(P3;[1],[2],[3],[0],[5]) [0,25]`` (23751 terms) takes 0.76 s.
* ``MAX_CELLS``: 230000 cells for staircase presentations (420 x 546
  takes 0.2 s), 80000 for the denser symmetric-power contraction
  (224 x 350 takes 0.45 s, 330 x 450 takes 1.1 s) and 30000 for seeded
  random matrices, whose Bareiss intermediates grow fastest (270 x 108
  takes 0.06 s, 390 x 462 takes 5.4 s).  ``kernel 3 2 --sym --twist 3``
  (27 s) and ``--twist 4`` (83 s) are far outside.  The staircase cap
  still admits the 420 x 546 rank, so Bareiss stays visible on the
  ``kernel`` workload.
* ``MAX_CHARACTERS`` (50000): ``oracle P3 [-14]`` visits 35937 characters
  in 0.22 s; ``oracle P3 [-20]`` visits 91125 in 0.59 s.

Within a workload the slots come in bands of similar cost, and the bands
are sized so that the median and the tail percentile of a list fall
inside a band rather than between two: the reported latencies then do
not jump with the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import comb

WORKLOADS = ("scan", "pushforward", "kernel", "oracle")
VARIANTS = 6

MAX_SCAN_POINTS = 700
MAX_SYM_WORK = 10000
MAX_CELLS = {"staircase": 230000, "sym": 80000, "random": 30000}
MAX_CHARACTERS = 50000


@dataclass(frozen=True)
class Request:
    """One CLI call and its closed-form size ("points")."""

    argv: tuple
    points: int

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _div(coords) -> str:
    return "[" + ",".join(str(c) for c in coords) + "]"


def _pb(base: str, summands) -> str:
    return f"PB({base};" + ",".join(_div(s) for s in summands) + ")"


def _fr_name(r: int) -> str:
    return "P1xP1" if r == 0 else f"F{r}"


# --------------------------------------------------------------------------
# scan: enum-zero, enum-ulrich, search-pb
# --------------------------------------------------------------------------
#
# On F_r the cost of a point grows with its C+ coordinate (a Sym power of
# that length over P^1) and not with r or the f coordinate, so r and the
# f part of a polarisation are free; the C+ part is fixed per slot.

FR = (1, 2, 3, 4)


def _box_points(radius: int, picard_rank: int) -> int:
    return (2 * radius + 1) ** picard_rank


def _scan_request(argv, radius: int, picard_rank: int) -> Request:
    points = _box_points(radius, picard_rank)
    if points > MAX_SCAN_POINTS:
        raise ValueError(f"scan {argv} has {points} points > {MAX_SCAN_POINTS}")
    return Request(tuple(argv) + ("--box", str(radius), "--json"), points)


def _enum_zero_fr(radius, r_choices=FR):
    def make(rng):
        return _scan_request(["enum-zero", _fr_name(rng.choice(r_choices))], radius, 2)
    return make


def _enum_ulrich_fr(radius, b, r_choices=FR):
    def make(rng):
        pol = (rng.randint(1, 2), b)
        return _scan_request(["enum-ulrich", _fr_name(rng.choice(r_choices)),
                              "--pol", _div(pol)], radius, 2)
    return make


def _p1_summands(rng, rank):
    return [(0,)] + [(rng.randint(0, 3),) for _ in range(rank - 1)]


def _enum_zero_pb_p1(radius):
    def make(rng):
        return _scan_request(["enum-zero", _pb("P1", _p1_summands(rng, 3))], radius, 2)
    return make


def _enum_ulrich_pb_p1(radius, rank):
    def make(rng):
        pb = _pb("P1", _p1_summands(rng, rank))
        return _scan_request(["enum-ulrich", pb, "--pol", _div((rng.randint(1, 3), 1))],
                             radius, 2)
    return make


def _search_pb_p1(radius):
    def make(rng):
        pb = _pb("P1", _p1_summands(rng, 3))
        return _scan_request(["search-pb", pb, "--pol", _div((rng.randint(1, 3),))],
                             radius, 1)
    return make


def _search_pb_surface(radius):
    def make(rng):
        base = rng.choice(("P1xP1", "F1"))
        summands = [(0, 0), (rng.randint(0, 2), 1)]
        pol = (rng.randint(1, 2), 1)
        return _scan_request(["search-pb", _pb(base, summands), "--pol", _div(pol)],
                             radius, 2)
    return make


def _search_pb_curve(radius):
    def make(rng):
        g = rng.randint(1, 3)
        summands = [(0,)] + [(rng.randint(0, 4),) for _ in range(2)]
        pol = (2 * g + 1 + rng.randint(0, 2),)
        return _scan_request(["search-pb", _pb(f"C{g}", summands), "--pol", _div(pol)],
                             radius, 1)
    return make


def _scan_slots():
    """120 slots in ascending cost bands (milliseconds when the benchmark
    was defined, for orientation only).  The median and the p90 each fall
    in the middle of a band of one kind of request."""
    slots = []
    # under 8 ms
    slots += [_enum_zero_fr(2)] * 5 + [_enum_zero_fr(3)] * 5
    slots += [_enum_zero_fr(3, (0,))] * 2
    slots += [_enum_zero_pb_p1(2)] * 4 + [_enum_zero_pb_p1(3)] * 4
    slots += [_search_pb_curve(10)] * 4 + [_search_pb_curve(30)] * 4
    slots += [_search_pb_p1(20)] * 6
    slots += [_enum_ulrich_pb_p1(2, 2)] * 4 + [_search_pb_surface(2)] * 3
    slots += [_enum_ulrich_fr(3, 2)] * 3
    # about 12 ms: the median band
    slots += [_enum_zero_pb_p1(5)] * 32
    # 14 to 60 ms
    slots += [_search_pb_curve(60)] * 4
    slots += [_enum_zero_fr(8)] * 3 + [_enum_zero_fr(10)] * 3
    slots += [_enum_ulrich_fr(7, 1)] * 2 + [_search_pb_surface(5)] * 2
    slots += [_search_pb_p1(300)] * 2 + [_enum_ulrich_fr(8, 1, (0,))] * 4
    # about 60 ms: the p90 band
    slots += [_enum_zero_fr(12)] * 20
    # about 90 ms
    slots += [_enum_ulrich_fr(10, 1)] * 4
    return slots


# --------------------------------------------------------------------------
# pushforward: coh, chi, direct, criterion, probe, ulrich on PB(base; E)
# --------------------------------------------------------------------------
#
# The cost of a line bundle O(pullback(B) + kH) on P(E) is its number of
# Sym terms times the cost of one base table.  Over P^n and curves a base
# table costs the same for every base and twist, so the base, the
# summands, B and the branch (k >= 0 or k <= -rank) are free; the rank and
# the Sym power p are fixed per slot.

PN_BASES = ("P1", "P2", "P3")
CURVE_BASES = ("C1", "C2", "C3")
SURFACE_BASES = ("P1xP1", "F1", "F2", "F3", "F4")
ALL_BASES = PN_BASES + CURVE_BASES + SURFACE_BASES


def _base_dims(base: str) -> int:
    return 2 if base in SURFACE_BASES else 1


def _base_summands(rng, base: str, rank: int):
    """Summands with a zero summand and small nonnegative coordinates."""
    if _base_dims(base) == 2:
        return [(0, 0)] + [(rng.randint(0, 2), rng.randint(0, 1))
                           for _ in range(rank - 1)]
    return [(0,)] + [(rng.randint(0, 3),) for _ in range(rank - 1)]


def sym_terms(rank: int, power: int) -> int:
    return comb(rank + power - 1, power) if power >= 0 else 0


def _sym_work(base: str, summands, b_coords, power: int) -> int:
    """Sym terms times the per-term cost of the base line table."""
    terms = sym_terms(len(summands), power)
    if _base_dims(base) == 2:
        top = abs(b_coords[1]) + power * max(s[1] for s in summands)
        return terms * (1 + top)
    return terms


def _line(command, bases, rank, power):
    def make(rng):
        base = rng.choice(bases)
        summands = _base_summands(rng, base, rank)
        b_coords = tuple(rng.randint(-3, 3) for _ in range(_base_dims(base)))
        k = power if rng.random() < 0.5 else -power - rank
        work = _sym_work(base, summands, b_coords, power)
        if work > MAX_SYM_WORK:
            raise ValueError(f"{command} on {base} rank {rank} p {power}: work {work}")
        return Request((command, _pb(base, summands), _div(b_coords + (k,)), "--json"),
                       sym_terms(rank, power))
    return make


def _pol_for(base: str, rng):
    if base.startswith("C"):
        return (2 * int(base[1:]) + 1 + rng.randint(0, 1),)
    return (rng.randint(1, 2),) * _base_dims(base)


def _candidate(base: str, rng) -> str:
    dims = _base_dims(base)
    parts = [tuple(rng.randint(-3, 2) for _ in range(dims))
             for _ in range(rng.choice((1, 1, 2)))]
    return _div(parts[0]) if len(parts) == 1 else "{" + ",".join(map(_div, parts)) + "}"


def _verdict(command, bases, ranks, lines_only=False):
    """direct / criterion: a few shallow Sym expansions per request."""
    def make(rng):
        base = rng.choice(bases)
        pb = _pb(base, _base_summands(rng, base, rng.choice(ranks)))
        cand = (_div(tuple(rng.randint(-3, 2) for _ in range(_base_dims(base))))
                if lines_only else _candidate(base, rng))
        return Request((command, pb, cand, "--pol", _div(_pol_for(base, rng)),
                        "--json"), 1)
    return make


def _ulrich_on_pb(bases, ranks):
    def make(rng):
        base = rng.choice(bases)
        pb = _pb(base, _base_summands(rng, base, rng.choice(ranks)))
        dims = _base_dims(base)
        cand = tuple(rng.randint(-2, 2) for _ in range(dims)) + (rng.randint(-1, 2),)
        pol = _pol_for(base, rng) + (1,)
        return Request(("ulrich", pb, _div(cand), "--pol", _div(pol), "--json"), 1)
    return make


def _probe(bases, ranks):
    def make(rng):
        base = rng.choice(bases)
        rank = rng.choice(ranks)
        pb = _pb(base, _base_summands(rng, base, rank))
        dims = _base_dims(base)
        l1, l2 = (tuple(rng.randint(-4, 4) for _ in range(dims)) for _ in range(2))
        return Request(("probe", pb, _div(l1), _div(l2), "-p",
                        str(rng.randint(0, rank - 1)), "--json"), 1)
    return make


def _expected_error(rng) -> Request:
    """Requests that end in exit 1 or 2 by design."""
    a, b = rng.randint(0, 3), rng.randint(1, 4)
    kind = rng.randrange(4)
    if kind == 0:  # unbalanced parenthesis: parse error, exit 1
        argv = ("coh", f"PB(P2;[{a}],[{b}]", f"[0,{b}]", "--json")
    elif kind == 1:  # pullback(A) + H not very ample: exit 2
        argv = ("criterion", f"PB(P2;[{a}],[{a + b}])", "[0]",
                "--pol", f"[{-a}]", "--json")
    elif kind == 2:  # chi is exact-mode only, curves are generic: exit 2
        argv = ("chi", f"PB(C{b};[0],[{a}])", f"[0,{b}]", "--json")
    else:  # probe twist outside 0..rank-1: exit 2
        argv = ("probe", f"PB(P1;[0],[{a}])", "[0]", f"[{b}]", "-p", str(2 + a),
                "--json")
    return Request(argv, 1)


def _pushforward_slots():
    """120 slots in ascending cost bands.

    A base table on P(E) has dim P(E) + 1 entries, so deep slots keep the
    base dimension fixed: curves and P^1, or P^2, or P^3.
    """
    pn_curve = PN_BASES + CURVE_BASES
    lines = ("P1",) + CURVE_BASES
    # all the short requests cost about 3 ms, most of it argument parsing,
    # so the median band is large: the median stays inside it even when a
    # few short requests of other kinds sort above or below it
    slots = [_expected_error] * 4
    slots += [_probe(ALL_BASES, (2, 3, 4, 5))] * 8
    slots += [_line("coh", ALL_BASES, rank, p) for rank in (2, 3) for p in range(4)]
    slots += [_line("coh", ALL_BASES, 2, p) for p in range(6)]
    slots += [_line("chi", PN_BASES + SURFACE_BASES, rank, p)
              for rank in (2, 3, 4, 5) for p in range(0, 6, 2)]
    # the median band: criterion checks of equal cost
    slots += [_verdict("criterion", ("P2",), (2,), lines_only=True)] * 40
    slots += [_verdict("direct", ALL_BASES, (2, 3))] * 6
    slots += [_ulrich_on_pb(PN_BASES + SURFACE_BASES, (2, 3))] * 6
    slots += [_line("coh", pn_curve, 3, p) for p in (11, 15)]
    slots += [_line("chi", PN_BASES, 4, p) for p in (10, 14)]
    # p90 band: rank 4, k = 20 or k = -24
    slots += [_line("coh", lines, 4, 20)] * 20
    # the tail: deep expansions, |k| up to 29 on rank 4 and 24 on rank 5
    slots += [_line("coh", lines, 5, 17), _line("coh", ("P2",), 5, 19),
              _line("coh", lines, 4, 25), _line("coh", ("P3",), 4, 24),
              _line("chi", ("P3",), 5, 19), _line("chi", ("P1",), 5, 18)]
    return slots


# --------------------------------------------------------------------------
# kernel: kernel n d [--sym | --random S] [--twist t], prop61 n d
# --------------------------------------------------------------------------
#
# Staircase and symmetric-power presentations have no seed, and which
# side of Serre duality a twist lands on changes the cost of a rank of the
# same size two- or threefold, so those slots are fixed requests.  Seeded
# random presentations of one shape cost within about ten percent of each
# other, so their matrix seed is free.

def presentation_shape(kind: str, n: int, d: int):
    """(b1, b2) of the presentation O(d)^b1 -> O(d+1)^b2 on P^n."""
    if kind == "sym":
        return comb(n + d + 1, n), comb(n + d, n)
    return n + d + 1, d + 1


def section_map_shape(kind: str, n: int, d: int, t: int):
    """(rows, cols) of the one exact rank behind the table of F(t).

    Twists with d + t >= 0 rank H^0(alpha(t)); twists with
    e = -(d + 1 + t) - n - 1 >= 0 rank the Serre-dual top-level map;
    the band in between needs no rank at all.
    """
    b1, b2 = presentation_shape(kind, n, d)
    q = d + t
    if q >= 0:
        return b2 * comb(n + q + 1, n), b1 * comb(n + q, n)
    e = -(d + 1 + t) - n - 1
    if e >= 0:
        return b1 * comb(n + e + 1, n), b2 * comb(n + e, n)
    return 0, 0


def _kernel(kind, n, d, t=None):
    """`kernel n d` with its orthogonality conditions (one rank, at t = 0)
    or with `--twist t`."""
    rows, cols = section_map_shape(kind, n, d, 0 if t is None else t)
    if rows * cols > MAX_CELLS[kind]:
        raise ValueError(f"{kind} n={n} d={d} t={t}: {rows}x{cols} over the cap")
    flags = ["--sym"] if kind == "sym" else []
    tail = (["--twist", str(t)] if t is not None else []) + ["--json"]

    def make(rng):
        seed = ["--random", str(rng.randint(1, 10 ** 6))] if kind == "random" else []
        return Request(tuple(["kernel", str(n), str(d)] + flags + seed + tail),
                       rows * cols)
    return make


def _prop61(n, d):
    return lambda rng: Request(("prop61", str(n), str(d), "--json"), 0)


def _kernel_slots():
    """100 slots in ascending cost bands."""
    st, sym, rnd = "staircase", "sym", "random"
    # under 10 ms
    slots = [_prop61(2, 1), _prop61(2, 2)] * 3
    slots += [_kernel(st, 2, 1), _kernel(st, 3, 2), _kernel(st, 4, 1),
              _kernel(sym, 3, 1)] * 3
    slots += [_kernel(rnd, 2, 1)] * 6 + [_kernel(rnd, 2, 1, 2)] * 6
    slots += [_kernel(st, n, d, t) for n, d, t in
              ((2, 1, 1), (2, 1, 3), (2, 1, -6), (2, 2, 2), (3, 1, 1), (3, 1, -7))]
    # 10 to 26 ms: the median falls in this band
    slots += [_kernel(rnd, 2, 2)] * 9 + [_kernel(rnd, 3, 1)] * 8
    slots += [_kernel(st, 2, 4), _kernel(sym, 2, 2), _kernel(st, 2, 1, 6),
              _kernel(sym, 3, 1, 1), _kernel(st, 3, 1, -10), _kernel(st, 4, 1, -10),
              _prop61(2, 4), _prop61(3, 1), _prop61(3, 2)] * 2
    # 26 to 36 ms
    slots += [_kernel(st, 2, 1, 10), _kernel(st, 3, 1, 4), _kernel(st, 2, 1, -14),
              _kernel(st, 2, 2, 6), _kernel(st, 3, 2, 2), _kernel(st, 4, 1, 2)]
    # 45 to 60 ms: the p90 falls in this band
    slots += [_kernel(st, 2, 1, -16), _kernel(st, 2, 2, 8), _kernel(sym, 2, 1, -12)] * 5
    slots += [_kernel(st, 4, 1, 3)]
    # the largest ranks the caps admit, on both sides of Serre duality
    slots += [_kernel(st, 2, 3, 9), _kernel(st, 2, 3, -19),
              _kernel(sym, 2, 2, 4), _kernel(sym, 2, 2, -12),
              _kernel(sym, 3, 1, 3), _kernel(sym, 3, 1, -10), _prop61(4, 1)]
    return slots


# --------------------------------------------------------------------------
# oracle: toric Cech cross-check on P1, P2, P3, P1xP1, F1..F4
# --------------------------------------------------------------------------
#
# The cost is the number of characters scanned.  Each slot fixes a family
# (P^n, or the surfaces) and a narrow band of character counts; the
# divisor within the band is free.

def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def oracle_characters(variety: str, coords) -> int:
    """Characters in the oracle's scan box, from the arrangement vertices.

    On P^n with D = d*h every axis reaches |d|.  On F_r with D = a*f + b*C+
    the vertices are (-a, 0), (-a, b), (0, 0), (r*b, b) and (-a, -a/r).
    The scan adds a two-character shell on each side.
    """
    if variety.startswith("P") and variety != "P1xP1":
        n = int(variety[1:])
        return (2 * (abs(coords[0]) + 2) + 1) ** n
    r = 0 if variety == "P1xP1" else int(variety[1:])
    a, b = coords
    e0 = max(abs(a), r * abs(b))
    e1 = max(abs(b), _ceil_div(abs(a), r)) if r else abs(b)
    return (2 * (e0 + 2) + 1) * (2 * (e1 + 2) + 1)


@lru_cache(maxsize=None)
def _characters_by_divisor(variety: str) -> tuple:
    """(coords, characters) of every divisor the oracle slots choose from."""
    if variety in SURFACE_BASES:
        coords = [(a, b) for a in range(-30, 31) for b in range(-20, 21)]
    else:
        coords = [(d,) for d in range(-80, 81)]
    return tuple((c, oracle_characters(variety, c)) for c in coords)


def _oracle(varieties, lo, hi):
    options = [(v, c, n) for v in varieties
               for c, n in _characters_by_divisor(v) if lo <= n <= hi]
    if not options or hi > MAX_CHARACTERS:
        raise ValueError(f"bad oracle band [{lo}, {hi}] on {varieties}")

    def make(rng):
        v, c, n = rng.choice(options)
        return Request(("oracle", v, _div(c), "--json"), n)
    return make


def _oracle_slots():
    """120 slots in ascending cost bands; the median and the p90 each fall
    in the middle of a band of surfaces, whose characters cost the same."""
    slots = [_oracle(("P1",), 10, 200)] * 6
    slots += [_oracle(("P2",), 50, 400)] * 10 + [_oracle(SURFACE_BASES, 50, 400)] * 18
    slots += [_oracle(("P3",), 100, 400)] * 10
    # about 800 characters: the median band
    slots += [_oracle(SURFACE_BASES, 700, 900)] * 32
    # about 2000
    slots += [_oracle(("P2",), 1800, 2200)] * 6 + [_oracle(SURFACE_BASES, 1800, 2200)] * 6
    slots += [_oracle(("P3",), 1800, 2400)] * 6
    # about 5000: the p90 band
    slots += [_oracle(SURFACE_BASES, 4800, 5200)] * 20
    # the tail: 3-dimensional scans of about 36000 characters
    slots += [_oracle(("P3",), 35000, 36000)] * 6
    return slots


# --------------------------------------------------------------------------
# seeded lists
# --------------------------------------------------------------------------

_SKELETONS = {
    "scan": _scan_slots,
    "pushforward": _pushforward_slots,
    "kernel": _kernel_slots,
    "oracle": _oracle_slots,
}


def pool(workload: str) -> list:
    """Every slot's variants, in slot order: a list of lists of Requests."""
    out = []
    for index, make in enumerate(_SKELETONS[workload]()):
        rng = random.Random(f"{workload}/{index}")
        variants, tries = [], 0
        while len(variants) < VARIANTS and tries < 20 * VARIANTS:
            req = make(rng)
            tries += 1
            if req not in variants:
                variants.append(req)
        out.append(variants)
    return out


def requests(workload: str, seed: int) -> list:
    """The workload's request list for one seed: one variant per slot."""
    rng = random.Random(f"{workload}:{seed}")
    chosen = [rng.choice(variants) for variants in pool(workload)]
    rng.shuffle(chosen)
    return chosen
