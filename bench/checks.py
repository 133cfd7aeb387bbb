"""Independent answers for the requests where one is cheap to get.

These recompute results from closed forms and share no code with the
engine: the line-bundle classifications on F_r and P^1 x P^1 quoted in
the ``ulrichbundles.search`` docstring, the generic-curve rule for
``search-pb`` over a curve, the Bott formula on P^n, and the Euler
characteristic of a line bundle on P(E) summed over the Sym terms of the
projection formula.  ``check(argv, exit_code, stdout)`` returns None when
the output agrees or has no independent answer, else a message.
"""

from __future__ import annotations

import json
import re
from math import comb, factorial

_DIVISOR = re.compile(r"\[(-?\d+(?:,-?\d+)*)\]")


def _coords(text: str) -> tuple:
    return tuple(int(x) for x in _DIVISOR.fullmatch(text).group(1).split(","))


def _split_pb(text: str):
    """'PB(base;[..],[..])' -> (base, [summand coords]); None if not a PB."""
    if not text.startswith("PB("):
        return None
    base, rest = text[3:-1].split(";", 1)
    return base, [_coords(m.group(0)) for m in _DIVISOR.finditer(rest)]


def _surface_r(name: str):
    """r for F_r (0 for P1xP1), None for other varieties."""
    if name == "P1xP1":
        return 0
    if re.fullmatch(r"F\d+", name):
        return int(name[1:])
    return None


def _option(argv, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _in_box(points, radius: int) -> list:
    return sorted(list(p) for p in set(points) if all(abs(c) <= radius for c in p))


# --------------------------------------------------------------------------
# scans
# --------------------------------------------------------------------------

def zero_cohomology_members(r: int, radius: int) -> list:
    """Line bundles on F_r (f, C+ coordinates) with no cohomology, in a box:
    -f, i*f - C+ and (r-1)*f - 2C+ for r > 0; the two fibre families on
    P^1 x P^1."""
    line = [(i, -1) for i in range(-radius, radius + 1)]
    if r > 0:
        return _in_box(line + [(-1, 0), (r - 1, -2)], radius)
    return _in_box(line + [(-1, j) for j in range(-radius, radius + 1)], radius)


def ulrich_line_members(r: int, pol: tuple, radius: int) -> list:
    """Ulrich line bundles for A = a*f + b*C+: (a-1, 1) and (r-1+2a, 0) on
    F_r when b = 1, none when b >= 2; (a-1, 2b-1) and (2a-1, b-1) on
    P^1 x P^1."""
    a, b = pol
    if r > 0:
        members = [(a - 1, 1), (r - 1 + 2 * a, 0)] if b == 1 else []
    else:
        members = [(a - 1, 2 * b - 1), (2 * a - 1, b - 1)]
    return _in_box(members, radius)


def _check_scan(argv, payload):
    radius = int(_option(argv, "--box"))
    command, variety = argv[0], argv[1]
    r = _surface_r(variety)
    if command == "enum-zero" and r is not None:
        expected = zero_cohomology_members(r, radius)
    elif command == "enum-ulrich" and r is not None:
        expected = ulrich_line_members(r, _coords(_option(argv, "--pol")), radius)
    elif command == "search-pb" and _split_pb(variety)[0].startswith("C"):
        # on a general curve only degree g-1 has no cohomology
        g = int(_split_pb(variety)[0][1:])
        expected = _in_box([(g - 1,)], radius)
    else:
        return None
    if payload["results"] != expected:
        return f"results {payload['results']} != closed form {expected}"
    return None


# --------------------------------------------------------------------------
# oracle
# --------------------------------------------------------------------------

def bott_table(n: int, d: int) -> list:
    """h^* of O(d) on P^n."""
    h = [0] * (n + 1)
    if d >= 0:
        h[0] = comb(n + d, n)
    elif d <= -n - 1:
        h[n] = comb(-d - 1, n)
    return h


def _check_oracle(argv, payload):
    if payload["agree"] is not True:
        return "oracle reports disagreement"
    if payload["engine"]["h"] != payload["oracle"]["h"]:
        return "engine and oracle tables differ"
    variety = argv[1]
    if re.fullmatch(r"P\d+", variety):
        expected = bott_table(int(variety[1:]), _coords(argv[2])[0])
        if payload["engine"]["h"] != expected:
            return f"h {payload['engine']['h']} != Bott formula {expected}"
    return None


# --------------------------------------------------------------------------
# Euler characteristics on P(E)
# --------------------------------------------------------------------------

def base_chi(base: str, coords: tuple) -> int:
    """Riemann-Roch on the base: P^n, a genus-g curve, F_r or P1xP1."""
    r = _surface_r(base)
    if r is not None:
        a, b = coords
        return (a + 1) * (b + 1) + r * b * (b + 1) // 2
    if base.startswith("C"):
        return coords[0] - int(base[1:]) + 1
    n, d = int(base[1:]), coords[0]
    num = 1
    for j in range(1, n + 1):
        num *= d + j
    return num // factorial(n)


def _multiset_sums(summands, power: int) -> dict:
    """{sum of a size-`power` multiset of summands: how many multisets}."""
    zero = (0,) * len(summands[0])
    layers = {(0, zero): 1}
    for s in summands:
        grown = {}
        for (size, vec), mult in layers.items():
            for j in range(power - size + 1):
                key = (size + j, tuple(v + j * c for v, c in zip(vec, s)))
                grown[key] = grown.get(key, 0) + mult
        layers = grown
    return {vec: mult for (size, vec), mult in layers.items() if size == power}


def pb_line_chi(base: str, summands, coords: tuple) -> int:
    """chi(P(E), O(pullback(B) + kH)) from the projection formula."""
    rho = len(summands)
    b, k = coords[:-1], coords[-1]
    if -rho < k < 0:
        return 0
    if k >= 0:
        sign, power, twist, step = 1, k, b, 1
    else:
        c1 = tuple(sum(col) for col in zip(*summands))
        sign, power, step = (-1) ** (rho - 1), -k - rho, -1
        twist = tuple(x - c for x, c in zip(b, c1))
    total = 0
    for vec, mult in _multiset_sums(summands, power).items():
        total += mult * base_chi(base, tuple(t + step * v for t, v in zip(twist, vec)))
    return sign * total


def _check_pushforward(argv, payload):
    parts = _split_pb(argv[1])
    if parts is None or not argv[2].startswith("["):
        return None
    expected = pb_line_chi(parts[0], parts[1], _coords(argv[2]))
    if argv[0] == "chi":
        got = payload["chi"]
    else:
        got = sum((-1) ** i * x for i, x in enumerate(payload["h"]))
        if got != payload["chi"]:
            return f"chi {payload['chi']} != alternating sum {got} of h"
    if got != expected:
        return f"chi {got} != projection-formula chi {expected}"
    return None


def check(argv, exit_code, stdout: str):
    """None if the output agrees with the independent answer (or there is
    none for this request), else a description of the disagreement."""
    if exit_code != 0:
        return None
    command = argv[0]
    if command in ("enum-zero", "enum-ulrich", "search-pb"):
        return _check_scan(argv, json.loads(stdout))
    if command == "oracle":
        return _check_oracle(argv, json.loads(stdout))
    if command in ("coh", "chi"):
        return _check_pushforward(argv, json.loads(stdout))
    return None
