"""The toric Cech oracle against the pushforward engine."""

import itertools

import pytest

from ulrichbundles import (
    DivisorClass,
    GenericCurve,
    ProjSpace,
    ScanBoxTooSmall,
    UnsupportedVariety,
    cohomology,
    hirzebruch,
    toric_cech_oracle,
)
from ulrichbundles.cohomology import _scan_bounds

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


def test_unsupported_fans_rejected():
    with pytest.raises(UnsupportedVariety):
        toric_cech_oracle(ProjSpace(4), DivisorClass(ProjSpace(4), (1,)))
    with pytest.raises(UnsupportedVariety):
        toric_cech_oracle(hirzebruch(5), DivisorClass(hirzebruch(5), (1, 1)))
    c = GenericCurve(1)
    with pytest.raises(UnsupportedVariety):
        toric_cech_oracle(c, DivisorClass(c, (0,)))


def test_shell_violation_detected(monkeypatch):
    # shrink the scan box below the support of h^0(O(3)) on P^2
    import importlib

    coh_mod = importlib.import_module("ulrichbundles.cohomology")
    monkeypatch.setattr(coh_mod, "_scan_bounds",
                        lambda rays, coeffs, dim: [2] * dim)
    with pytest.raises(ScanBoxTooSmall):
        toric_cech_oracle(P2, DivisorClass(P2, (3,)))


def test_scan_bounds_cover_polytope():
    # vertices of the section polytope of O(a f + b C+) sit inside the box
    from ulrichbundles.cohomology import _fan, _ray_coefficients

    rays, cones, dim = _fan(F2)
    coeffs = _ray_coefficients(F2, DivisorClass(F2, (2, 3)))
    bounds = _scan_bounds(rays, coeffs, dim)
    # the section polytope of O(2f + 3C+) has its widest vertex at m1 = r*b = 6
    assert bounds[0] >= 6 + 2
