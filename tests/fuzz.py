"""Seeded grammar fuzz of the command line.

``fuzz(seed)`` builds 400 small requests over all thirteen commands and
runs them through ``cli.run``.  Every request must end inside the
exit-code contract: exit 0, 1 or 2, a last stdout line that is JSON with
an ``error`` key on every nonzero exit, and no exception escaping
``run``.  Exit 3 (an internal inconsistency) fails the fuzz too.

The requests stay small: towers of depth at most 2, coordinates in
[-3, 3], scan boxes of radius at most 2, ``kernel`` with n, d in [-1, 2]
and ``prop61`` with n in [-1, 3], d in [-1, 2].  A ``kernel --random``
request draws its matrix seed from [0, 999], so the seeds together reach
every surjectivity certificate: one target row (d = 0), P^1 (n = 1), two
target rows (d = 1) and point sampling (n = d = 2).  Run seeds by hand with

    PYTHONPATH=src:tests python -c "from fuzz import fuzz; fuzz(1)"
"""

import contextlib
import io
import json
import random

from ulrichbundles.cli import run

REQUESTS = 400
COMMANDS = ("coh", "chi", "ample", "ulrich", "criterion", "direct", "probe",
            "enum-zero", "enum-ulrich", "search-pb", "kernel", "prop61", "oracle")
# leaf varieties with their Picard ranks; P0, F-1 and C-1 are refused
LEAVES = (("P1", 1), ("P2", 1), ("P3", 1), ("P0", 1), ("P1xP1", 2), ("F1", 2),
          ("F2", 2), ("F3", 2), ("F-1", 2), ("C0", 1), ("C2", 1), ("C-1", 1))


def _divisor(rng, rank):
    # now and then one coordinate too many or too few
    rank += rng.choice((0,) * 9 + (-1, 1))
    return "[" + ",".join(str(rng.randint(-3, 3)) for _ in range(max(rank, 1))) + "]"


def _bundle(rng, rank):
    if rng.random() < 0.5:
        return _divisor(rng, rank)
    return "{" + ",".join(_divisor(rng, rank) for _ in range(rng.randint(1, 3))) + "}"


def _variety(rng, depth):
    """(text, Picard rank) of a leaf or of a tower PB(...) of that depth."""
    if depth == 0:
        return rng.choice(LEAVES)
    base, rank = _variety(rng, depth - 1)
    summands = ",".join(_divisor(rng, rank) for _ in range(rng.randint(1, 3)))
    return f"PB({base};{summands})", rank + 1


def _tower(rng):
    """A tower of depth 1 or 2 with its base's Picard rank."""
    text, rank = _variety(rng, rng.randint(1, 2))
    return text, rank - 1


def request(rng):
    """One random argv over the grammar."""
    command = rng.choice(COMMANDS)
    if command == "kernel":
        argv = [command, str(rng.randint(-1, 2)), str(rng.randint(-1, 2))]
        flag = rng.choice(("", "--sym", "--random"))
        if flag == "--random":
            argv += [flag, str(rng.randint(0, 999))]
        elif flag:
            argv.append(flag)
    elif command == "prop61":
        argv = [command, str(rng.randint(-1, 3)), str(rng.randint(-1, 2))]
    elif command in ("criterion", "direct", "probe", "search-pb"):
        pb, rank = _tower(rng)
        argv = [command, pb]
        if command == "probe":
            argv += [_divisor(rng, rank), _divisor(rng, rank),
                     "-p", str(rng.randint(-1, 3))]
        else:
            if command != "search-pb":
                argv.append(_bundle(rng, rank))
            argv += ["--pol", _divisor(rng, rank)]
    else:
        v, rank = _variety(rng, rng.randint(0, 2))
        argv = [command, v]
        if command in ("coh", "chi", "ulrich"):
            argv.append(_bundle(rng, rank))
        elif command in ("ample", "oracle"):
            argv.append(_divisor(rng, rank))
        if command in ("ulrich", "enum-ulrich"):
            argv += ["--pol", _divisor(rng, rank)]
    if command in ("enum-zero", "enum-ulrich", "search-pb"):
        argv += ["--box", str(rng.randint(-1, 2))]
    if rng.random() < 0.5:
        argv.append("--json")
    return argv


def _violation(argv):
    """None when the request ends inside the contract, else what broke it."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run(argv)
    except Exception as err:  # an escaping exception is the finding
        return f"{type(err).__name__}: {err}"
    if code not in (0, 1, 2):
        return f"exit {code}"
    if code:
        lines = out.getvalue().strip().splitlines()
        try:
            if "error" not in json.loads(lines[-1]):
                return f"exit {code} without an error key"
        except (IndexError, TypeError, ValueError):
            return f"exit {code} without a JSON last line"
    return None


def fuzz(seed):
    """Run the seed's requests; raise AssertionError naming every one that
    left the contract, else return the number of requests run."""
    rng = random.Random(seed)
    bad = []
    for _ in range(REQUESTS):
        argv = request(rng)
        problem = _violation(argv)
        if problem is not None:
            bad.append(f"{argv}: {problem}")
    assert not bad, f"seed {seed}: {len(bad)} requests left the contract:\n" + "\n".join(bad)
    return REQUESTS
