"""The toric Cech oracle against the pushforward engine and against a
per-character reference scan."""

import ast
import importlib
import itertools
import json
import random
import time
from fractions import Fraction
from math import ceil, comb, floor, prod
from operator import mul

import pytest

from ulrichbundles import (
    BoxTooLarge,
    DivisorClass,
    GenericCurve,
    ProjSpace,
    ScanBoxTooSmall,
    UnsupportedVariety,
    cohomology,
    hirzebruch,
    parse_divisor,
    parse_variety,
    toric_cech_oracle,
)
from ulrichbundles import exactlinalg
from ulrichbundles.cli import run
from ulrichbundles.cohomology import (
    _check_cap,
    _reduced_betti,
    _scan_bounds,
    _toric_model,
)

from test_exactlinalg import reference_solve
from towers import rank2_tower

coh_mod = importlib.import_module("ulrichbundles.cohomology")

P2 = ProjSpace(2)
F2 = hirzebruch(2)


def test_p2_three_monomials():
    assert toric_cech_oracle(P2, DivisorClass(P2, (1,))).h == (3, 0, 0)


def test_f2_canonical_class():
    assert toric_cech_oracle(F2, DivisorClass(F2, (0, -2))).h == (0, 0, 1)


def test_quadric_vanishing_family():
    q = hirzebruch(0)
    assert toric_cech_oracle(q, DivisorClass(q, (-1, 5))).h == (0, 0, 0)


def test_p3_serre_dual():
    p3 = ProjSpace(3)
    assert toric_cech_oracle(p3, DivisorClass(p3, (-5,))).h == (0, 0, 0, 4)


def test_p1():
    p1 = ProjSpace(1)
    assert toric_cech_oracle(p1, DivisorClass(p1, (-2,))).h == (0, 1)


@pytest.mark.parametrize("v", [P2, hirzebruch(1), F2, hirzebruch(3),
                               hirzebruch(0)])
def test_agreement_box(v):
    for coords in itertools.product(range(-4, 5), repeat=v.picard_rank):
        d = DivisorClass(v, coords)
        assert toric_cech_oracle(v, d).h == cohomology(v, d).h, (v.name, coords)


def test_skew_fan_needs_wide_box():
    # F_3 with a large negative section part spreads its h^2 support wide;
    # the arrangement-vertex bound must cover it
    d = DivisorClass(hirzebruch(3), (0, -6))
    assert toric_cech_oracle(hirzebruch(3), d).h == cohomology(hirzebruch(3), d).h


def test_curves_rejected():
    # a curve has no fan, and neither has a P(E) over it
    for v in (GenericCurve(1), parse_variety("PB(C1;[0],[1])")):
        with pytest.raises(UnsupportedVariety):
            toric_cech_oracle(v, DivisorClass(v, (0,) * v.picard_rank))


def test_box_over_cap_rejected():
    # O(5) on P^2 scans a 10 x 10 box
    with pytest.raises(BoxTooLarge):
        toric_cech_oracle(P2, DivisorClass(P2, (5,)), cap=50)
    assert toric_cech_oracle(P2, DivisorClass(P2, (5,)), cap=100).h == (21, 0, 0)


def test_dimension_over_cap_rejected_before_the_fan(monkeypatch):
    # every axis spans at least five characters, so 5^4 > 600 refuses P^4
    import importlib

    coh_mod = importlib.import_module("ulrichbundles.cohomology")
    monkeypatch.setattr(coh_mod, "_toric_model", lambda v: pytest.fail("fan built"))
    p4 = ProjSpace(4)
    with pytest.raises(BoxTooLarge):
        toric_cech_oracle(p4, DivisorClass(p4, (0,)), cap=600)


@pytest.mark.parametrize("argv, env", [
    (["oracle", rank2_tower(20), "[" + ",".join(["1"] * 21) + "]"], {}),
    (["oracle", "P2", "[5]"], {"ULRICH_SCAN_CAP": "50"}),
    # dim 8 passes 5^8 <= 10^6; its full box needs C(16, 8) = 12870 solves
    (["oracle", rank2_tower(7), "[" + ",".join(["1"] * 8) + "]"], {}),
])
def test_cli_oracle_over_cap_exits_two(monkeypatch, capsys, argv, env):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    start = time.perf_counter()
    code = run(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"] == "box-too-large"


# the last two have a first summand D_0 != 0, which enters every class
TOWERS = ["P4", "F5", "PB(P1;[0],[2],[3])", "PB(P2;[0],[1],[-2])", "PB(P3;[0],[2])",
          "PB(F1;[0,0],[1,1])", "PB(F2;[0,0],[1,0],[0,1])",
          "PB(PB(F1;[0,0],[1,0]);[0,0,0],[0,1,1])", "PB(P2;[2],[-1])",
          "PB(F3;[1,-1],[0,2])"]


def test_agreement_on_towers():
    rng = random.Random(6)
    for text in TOWERS:
        v = parse_variety(text)
        for _ in range(8):
            d = DivisorClass(v, [rng.randint(-2, 2) for _ in range(v.picard_rank)])
            assert toric_cech_oracle(v, d).h == cohomology(v, d).h, (text, d.coords)


def test_shell_violation_detected(monkeypatch):
    # shrink the scan box below the support of h^0(O(3)) on P^2
    import importlib

    coh_mod = importlib.import_module("ulrichbundles.cohomology")
    monkeypatch.setattr(coh_mod, "_scan_bounds",
                        lambda rays, coeffs, dim, cap: [(-2, 2)] * dim)
    with pytest.raises(ScanBoxTooSmall):
        toric_cech_oracle(P2, DivisorClass(P2, (3,)))


def test_scan_bounds_cover_polytope():
    # every vertex of the arrangement <m, u> = -a of O(2f + 3C+) on F_2
    # lies at least two characters inside the box
    rays, cones, rows, _ = _toric_model(F2)
    coeffs = [sum(r * c for r, c in zip(row, (2, 3))) for row in rows]
    bounds = _scan_bounds(rays, coeffs, 2)
    assert bounds == [(-2, 10), (-3, 5)]
    for (u1, w1), (u2, w2) in itertools.combinations(
            [(u, -a) for u, a in zip(rays, coeffs)], 2):
        det = u1[0] * u2[1] - u1[1] * u2[0]
        if det:
            vertex = (Fraction(w1 * u2[1] - w2 * u1[1], det),
                      Fraction(u1[0] * w2 - u2[0] * w1, det))
            assert all(lo + 2 <= x <= hi - 2 for x, (lo, hi) in zip(vertex, bounds))


def counted_solves(monkeypatch) -> list:
    """A list that ``exactlinalg.solve_square`` appends to on each call."""
    calls = []
    solve = exactlinalg.solve_square
    monkeypatch.setattr(exactlinalg, "solve_square",
                        lambda matrix, rhs: calls.append(1) or solve(matrix, rhs))
    return calls


def test_oversized_box_refused_before_every_vertex_is_solved(monkeypatch):
    v = parse_variety(rank2_tower(7))
    rays, cones, rows, _ = _toric_model(v)
    coeffs = [sum(map(mul, row, [1] * v.picard_rank)) for row in rows]
    calls = counted_solves(monkeypatch)
    with pytest.raises(BoxTooLarge, match="at least"):
        _scan_bounds(rays, coeffs, v.dim, None)
    assert 0 < len(calls) < comb(len(rays), v.dim)


def test_vertex_systems_solved_once_per_process(monkeypatch):
    # the caches start cold (tests/conftest.py): the first P^3 request
    # solves its C(4, 3) = 4 systems, and later ones, for any divisor, none
    p3 = ProjSpace(3)
    calls = counted_solves(monkeypatch)
    assert toric_cech_oracle(p3, DivisorClass(p3, (-5,))).h == (0, 0, 0, 4)
    assert len(calls) == comb(4, 3)
    for coords in [(-5,), (2,), (0,), (-40,)]:
        toric_cech_oracle(p3, DivisorClass(p3, coords))
    assert len(calls) == comb(4, 3)


def test_time_bounds():
    p3 = ProjSpace(3)
    start = time.perf_counter()
    assert toric_cech_oracle(p3, DivisorClass(p3, (-40,))).h == (0, 0, 0, comb(39, 3))
    assert time.perf_counter() - start < 0.1
    # the pattern and vertex-system caches are warmed first, so the second
    # call times the scan and the box's integer products: 5^6 characters
    # in 5^4 planes of 5 rows, and C(12, 6) = 924 cached vertex systems
    v = parse_variety(rank2_tower(5))
    zero = DivisorClass(v, (0,) * v.picard_rank)
    toric_cech_oracle(v, zero)
    start = time.perf_counter()
    assert toric_cech_oracle(v, zero).h == (1,) + (0,) * v.dim
    assert time.perf_counter() - start < 0.15


def test_cold_cache_time_bound():
    # the oracle's caches start empty (tests/conftest.py), so this times
    # the homology of the level-uniform patterns too: 5^7 characters,
    # C(14, 7) = 3432 solves
    v = parse_variety(rank2_tower(6))
    start = time.perf_counter()
    assert (toric_cech_oracle(v, DivisorClass(v, (0,) * v.picard_rank)).h
            == (1,) + (0,) * v.dim)
    assert time.perf_counter() - start < 2.0


# --------------------------------------------------------------------------
# the scan by levels against the per-character scan
# --------------------------------------------------------------------------

# fan -> {mask: reduced Betti numbers}, apart from the oracle's own cache
_REFERENCE_PATTERNS = {}


def sign_mask(rays, coeffs, m):
    """Bit i set iff <m, u_i> + a_i < 0."""
    return sum(1 << i for i, (u, a) in enumerate(zip(rays, coeffs))
               if sum(map(mul, m, u)) + a < 0)


def reference_oracle(v, d, seen=None):
    """The per-character scan: one sign pattern per character of the box
    from ``_scan_bounds`` (looked up at call time, so a patched bound
    applies to both scans).  ``seen`` collects the masks visited."""
    _check_cap(5 ** v.dim, None)
    rays, cones, rows, _ = _toric_model(v)
    coeffs = [sum(map(mul, row, d.coords)) for row in rows]
    bounds = coh_mod._scan_bounds(rays, coeffs, v.dim, None)
    patterns = _REFERENCE_PATTERNS.setdefault((rays, cones), {})
    h = [0] * (v.dim + 1)
    for m in itertools.product(*(range(lo, hi + 1) for lo, hi in bounds)):
        mask = sign_mask(rays, coeffs, m)
        if seen is not None:
            seen.add(mask)
        contrib = patterns.get(mask)
        if contrib is None:
            contrib = patterns[mask] = _reduced_betti(cones, len(rays), mask, v.dim)
        if any(contrib):
            if any(mi in bound for mi, bound in zip(m, bounds)):
                raise ScanBoxTooSmall(
                    f"character {m} on the scan shell contributes {contrib}")
            for p, x in enumerate(contrib):
                h[p] += x
    return tuple(h)


def outcome(fn, *args):
    """The table (or box), or the type and message of the exception raised."""
    try:
        result = fn(*args)
    except (BoxTooLarge, ScanBoxTooSmall) as exc:
        return type(exc), str(exc)
    return getattr(result, "h", result)


def reference_scan_bounds(rays, coeffs, dim, cap=None):
    """The box solved per request: every vertex a rational Gauss-Jordan
    solve (``reference_solve``), its floor and ceiling taken on Fractions,
    with the same incremental cap check in the same combo order."""
    lo = hi = None
    for combo in itertools.combinations(range(len(rays)), dim):
        sol = reference_solve([rays[i] for i in combo], [-coeffs[i] for i in combo])[0]
        if sol is None:
            continue
        down, up = list(map(floor, sol)), list(map(ceil, sol))
        if lo is not None:
            down, up = list(map(min, lo, down)), list(map(max, hi, up))
        if (down, up) != (lo, hi):
            lo, hi = down, up
            _check_cap(prod(b - a + 5 for a, b in zip(lo, hi)), cap,
                       "box volume at least")
    return [(a - 2, b + 2) for a, b in zip(lo, hi)]


# (variety, coordinate range, seeds in Tier-1)
AGREEMENT = ([(f"P{n}", 12 - 2 * n, 6) for n in range(1, 5)]
             + [("P1xP1", 5, 6)] + [(f"F{r}", 5, 6) for r in range(1, 6)]
             + [(text, 2, 3) for text in TOWERS]
             + [(rank2_tower(depth), 1, 3) for depth in (2, 3, 4)])


def oracle_sweep(seeds, fans=AGREEMENT) -> int:
    """Per seed and fan, one divisor drawn from the coordinate range, scanned
    by the oracle and by ``reference_oracle`` in its own box and in a box
    shrunk by 0..4 characters on each side: both must give the same table
    or the same exception with the same message.  Its box must equal
    ``reference_scan_bounds``, uncapped and under a cap drawn from 1 to the
    box's volume: the same box or the same BoxTooLarge message.  Returns
    the number of boxes the oracles compared."""
    scan_bounds = coh_mod._scan_bounds
    compared = 0
    for seed in seeds:
        for text, radius, _ in fans:
            v = parse_variety(text)
            rng = random.Random(f"{text} {seed}")
            d = DivisorClass(v, [rng.randint(-radius, radius)
                                 for _ in range(v.picard_rank)])
            cuts = [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(v.dim)]
            rays, _, rows, _ = _toric_model(v)
            coeffs = [sum(map(mul, row, d.coords)) for row in rows]
            box = reference_scan_bounds(rays, coeffs, v.dim)
            for cap in (None, rng.randint(1, prod(hi - lo + 1 for lo, hi in box))):
                assert (outcome(scan_bounds, rays, coeffs, v.dim, cap)
                        == outcome(reference_scan_bounds, rays, coeffs, v.dim, cap)), \
                    (text, seed, d.coords, cap)

            def shrunk(rays, coeffs, dim, cap):
                return [(lo + a, max(lo + a, hi - b)) for (lo, hi), (a, b)
                        in zip(scan_bounds(rays, coeffs, dim, cap), cuts)]

            for bounds in (scan_bounds, shrunk):
                coh_mod._scan_bounds = bounds
                try:
                    assert (outcome(toric_cech_oracle, v, d)
                            == outcome(reference_oracle, v, d)), \
                        (text, seed, d.coords, bounds is shrunk and cuts)
                finally:
                    coh_mod._scan_bounds = scan_bounds
                compared += 1
    return compared


@pytest.mark.parametrize("text, radius, count", AGREEMENT)
def test_runs_agree_with_characters(text, radius, count):
    assert oracle_sweep(range(1, count + 1), [(text, radius, count)]) == 2 * count


def pooled_oracle_sweep(argvs) -> int:
    """The oracle against ``reference_oracle`` on the variety and divisor
    of each distinct ``oracle`` CLI request: the same table, or the same
    exception with the same message.  CI runs the distinct requests of the
    benchmark's ``oracle`` pool, whose divisors reach past
    ``oracle_sweep``'s: up to 14 on P^3, 30 on the surfaces.  Returns the
    number of requests compared."""
    compared = 0
    for argv in dict.fromkeys(map(tuple, argvs)):
        assert argv[0] == "oracle" and argv[3:] == ("--json",), argv
        v = parse_variety(argv[1])
        d = parse_divisor(argv[2], v)
        assert outcome(toric_cech_oracle, v, d) == outcome(reference_oracle, v, d), argv
        compared += 1
    return compared


def test_pooled_oracle_sweep_slice():
    # the benchmark's tail request and a wide box on a surface
    assert pooled_oracle_sweep([("oracle", "P3", "[-14]", "--json"),
                                ("oracle", "F3", "[-25,8]", "--json"),
                                ("oracle", "P3", "[-14]", "--json")]) == 2


def test_refusals_agree():
    p4 = ProjSpace(4)
    d = DivisorClass(p4, (30,))  # a box of at least 35^4 characters
    assert outcome(toric_cech_oracle, p4, d)[0] is BoxTooLarge
    assert outcome(reference_oracle, p4, d) == outcome(toric_cech_oracle, p4, d)


def ray_role(u):
    """How the scan reads ray u in a plane, from (b, c) = (u[-2], u[-1]), b
    = 0 on P^1: a per-row list (b, c != 0), a constant bound (b = 0 != c)
    or a row window (c = 0 != b), with the sign that orients it, or a ray
    that reads the prefix only (b = c = 0)."""
    b, c = u[-2] if len(u) > 1 else 0, u[-1]
    if c:
        return ("list" if b else "constant", c > 0)
    return ("window", b > 0) if b else ("prefix",)


def test_agreement_inputs_hold_every_kind_of_ray():
    # so that oracle_sweep runs every branch of the plane scan
    roles = {ray_role(u) for text, _, _ in AGREEMENT
             for u in _toric_model(parse_variety(text))[0]}
    assert roles == {("list", True), ("list", False), ("constant", True),
                     ("constant", False), ("window", True), ("window", False),
                     ("prefix",)}


def plane_edges(v, d, box):
    """Where, over the planes of ``box``, each window ray's cut falls
    against the rows ("before", "inside", "past") and where each constant
    bound's flip falls against the last axis ("lo", "top"), both solved on
    Fractions."""
    rays, _, rows, _ = _toric_model(v)
    coeffs = [sum(map(mul, row, d.coords)) for row in rows]
    *outer, (x_lo, x_hi), (lo, hi) = box
    edges = set()
    for prefix in itertools.product(*(range(a, b + 1) for a, b in outer)):
        for u, a in zip(rays, coeffs):
            s, (b, c), role = sum(map(mul, prefix, u[:-2])) + a, u[-2:], ray_role(u)[0]
            if role == "window":
                cut = Fraction(-s, b)  # the ray reads s + b x
                edges.add(("window", "before" if cut < x_lo else
                           "past" if cut > x_hi else "inside"))
            elif role == "constant":
                # the first t on the side of the flip where t is larger
                flip = floor(Fraction(-s, c)) + 1 if c < 0 else ceil(Fraction(-s, c))
                edges.update(("constant", c > 0, name)
                             for name, at in (("lo", lo), ("top", hi + 1)) if flip == at)
    return edges


# (variety, divisor, patched box, an edge of a window or a constant bound
# that the box makes the scan meet); each box holds every contributing
# character off its shell, so both scans give a table
EDGE_CASES = [
    (rank2_tower(2), (-3, -3, -3), [(-11, 2), (-7, 5), (-5, 8)], ("window", "before")),
    (rank2_tower(2), (-3, -3, -3), [(-11, 2), (-8, 5), (-5, 8)], ("window", "inside")),
    (rank2_tower(2), (-3, -3, -3), [(-11, 2), (-8, 4), (-5, 8)], ("window", "past")),
    ("F1", (-1, 1), [(-3, 2), (0, 3)], ("constant", True, "lo")),
    ("F1", (1, -3), [(-4, 3), (-2, 2)], ("constant", False, "lo")),
    ("F1", (0, -3), [(-5, 2), (-5, -1)], ("constant", True, "top")),
    ("F1", (-3, 2), [(-5, 2), (-2, 2)], ("constant", False, "top")),
]


@pytest.mark.parametrize("text, coords, box, edge", EDGE_CASES)
def test_window_and_constant_edges(monkeypatch, text, coords, box, edge):
    v = parse_variety(text)
    d = DivisorClass(v, coords)
    assert edge in plane_edges(v, d, box)
    monkeypatch.setattr(coh_mod, "_scan_bounds", lambda rays, coeffs, dim, cap: box)
    table = outcome(reference_oracle, v, d)
    assert isinstance(table, tuple) and any(table)
    assert outcome(toric_cech_oracle, v, d) == table


@pytest.mark.parametrize("n", [1, 2, 3])
def test_single_character_runs(n):
    # O on P^n: only m = 0 contributes, and its neighbours along the last
    # axis have other masks, so the run of m = 0 has length one
    v = ProjSpace(n)
    rays = _toric_model(v)[0]
    coeffs = [0] * len(rays)
    masks = [sign_mask(rays, coeffs, (0,) * (n - 1) + (t,)) for t in (-1, 0, 1)]
    assert masks[1] not in (masks[0], masks[2])
    assert toric_cech_oracle(v, DivisorClass(v, (0,))).h == (1,) + (0,) * n


# O(3) on P^2 has h^0 = 10 on the triangle m >= 0, m_1 + m_2 <= 3, and the
# true box is [-2, 5]^2.  Each patched box shrinks it so that a contributing
# run touches the shell in one way: (bounds, the shell character named)
SHELL_CASES = [
    ([(-2, 5), (-2, 2)], (0, 2)),   # the last axis ends inside the run
    ([(-2, 2), (-2, 5)], (2, 0)),   # a leading axis: the prefix is on it
    ([(-2, 5), (0, 5)], (0, 0)),    # the run starts at the last axis' lo
]


@pytest.mark.parametrize("bounds, named", SHELL_CASES)
def test_shell_violations_by_runs(monkeypatch, bounds, named):
    monkeypatch.setattr(coh_mod, "_scan_bounds",
                        lambda rays, coeffs, dim, cap: bounds)
    d = DivisorClass(P2, (3,))
    with pytest.raises(ScanBoxTooSmall) as caught:
        toric_cech_oracle(P2, d)
    message = str(caught.value)
    m = ast.literal_eval(message[len("character "):message.index(" on ")])
    assert m == named
    assert outcome(reference_oracle, P2, d) == (ScanBoxTooSmall, message)


def test_shell_character_in_the_first_row_of_a_window(monkeypatch):
    # O(-3f - 3C+) on P1 x P1 has h^2 = 4 on x, t in {-2, -1}; the ray
    # (-1, 0) is negative from x = -2 on, so the rows of the all-negative
    # pattern are a window that starts at row x = -2, the fourth one.  Cut
    # to t >= -1, the box names that window's first row
    q = hirzebruch(0)
    d = DivisorClass(q, (-3, -3))
    rays, _, rows, _ = _toric_model(q)
    assert rays[0] == (-1, 0) and sum(map(mul, rows[0], d.coords)) == -3
    monkeypatch.setattr(coh_mod, "_scan_bounds",
                        lambda rays, coeffs, dim, cap: [(-5, 2), (-1, 2)])
    named = (ScanBoxTooSmall, "character (-2, -1) on the scan shell contributes (0, 0, 1)")
    assert outcome(reference_oracle, q, d) == named
    assert outcome(toric_cech_oracle, q, d) == named


def test_first_shell_character_across_patterns(monkeypatch):
    # O(-3f + 3C+) on F_3 has h = (12, 2, 0) in the box [(-5, 8), (-2, 5)];
    # cut to [(-5, 4), (0, 5)], its h^0 and h^1 patterns both meet the
    # shell in the one plane, and the h^1 one first in scan order
    f3 = hirzebruch(3)
    d = DivisorClass(f3, (-3, 3))
    monkeypatch.setattr(coh_mod, "_scan_bounds",
                        lambda rays, coeffs, dim, cap: [(-5, 4), (0, 5)])
    named = (ScanBoxTooSmall, "character (-2, 0) on the scan shell contributes (0, 1, 0)")
    assert outcome(toric_cech_oracle, f3, d) == named
    assert outcome(reference_oracle, f3, d) == named


def uniform_degree(mask, levels):
    """p = the sum of the dimensions of the all-negative levels when every
    level is all or none negative under ``mask``, else None."""
    p = 0
    for members, dim in levels:
        negative = [mask >> i & 1 for i in members]
        if all(negative):
            p += dim
        elif any(negative):
            return None
    return p


# every fan above, each once
JOIN_FANS = list(dict.fromkeys(TOWERS + [f"P{n}" for n in range(1, 5)] + ["P1xP1"]
                               + [f"F{r}" for r in range(1, 6)]
                               + [rank2_tower(depth) for depth in (2, 3, 4)]))


def test_only_level_uniform_patterns_have_homology():
    # the fan complex is the join of the levels' simplex boundaries: a
    # mixed pattern is acyclic, and a level-uniform one is a sphere (or
    # empty) whose one reduced Betti number lands in h^p
    masks = 0
    for text in JOIN_FANS:
        v = parse_variety(text)
        rays, cones, _, levels = _toric_model(v)
        for mask in range(1 << len(rays)):
            expected = [0] * (v.dim + 1)
            p = uniform_degree(mask, levels)
            if p is not None:
                expected[p] = 1
            assert _reduced_betti(cones, len(rays), mask, v.dim) == tuple(expected), \
                (text, mask)
            masks += 1
    assert masks == 2204


@pytest.mark.parametrize("text, coords", [
    ("P2", (3,)), ("P3", (-5,)), ("F2", (0, -2)), ("F3", (2, -4)),
    ("PB(P2;[0],[1],[-2])", (1, -1)), (rank2_tower(3), (0, 1, -1, 0)),
])
def test_patterns_computed_once_per_distinct_mask(monkeypatch, text, coords):
    v = parse_variety(text)
    d = DivisorClass(v, coords)
    seen = set()
    expected = reference_oracle(v, d, seen)
    computed = []
    monkeypatch.setattr(coh_mod, "_reduced_betti",
                        lambda cones, nrays, mask, dim:
                        computed.append(mask) or _reduced_betti(cones, nrays, mask, dim))
    assert toric_cech_oracle(v, d).h == expected
    # the level-uniform masks among those the characters show, each once
    levels = _toric_model(v)[3]
    assert sorted(computed) == sorted(m for m in seen
                                      if uniform_degree(m, levels) is not None)
