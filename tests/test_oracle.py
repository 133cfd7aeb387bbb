"""The toric Cech oracle against the pushforward engine."""

import itertools
import json
import random
import time
from fractions import Fraction

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
    parse_variety,
    toric_cech_oracle,
)
from ulrichbundles.cli import run
from ulrichbundles.cohomology import _scan_bounds, _toric_model

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


def rank2_tower(depth):
    text = "P1"
    for j in range(depth):
        zeros = ",".join(["0"] * (j + 1))
        one = ",".join(["0"] * j + ["1"])
        text = f"PB({text};[{zeros}],[{one}])"
    return text


@pytest.mark.parametrize("argv, env", [
    (["oracle", rank2_tower(20), "[" + ",".join(["1"] * 21) + "]"], {}),
    (["oracle", "P2", "[5]"], {"ULRICH_SCAN_CAP": "50"}),
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
                        lambda rays, coeffs, dim: [(-2, 2)] * dim)
    with pytest.raises(ScanBoxTooSmall):
        toric_cech_oracle(P2, DivisorClass(P2, (3,)))


def test_scan_bounds_cover_polytope():
    # every vertex of the arrangement <m, u> = -a of O(2f + 3C+) on F_2
    # lies at least two characters inside the box
    rays, cones, rows = _toric_model(F2)
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
