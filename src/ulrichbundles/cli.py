"""Command-line surface.

Every engine operation is exposed as a subcommand over the shared input
grammar.  Output is a human-readable summary or, with ``--json``, a
byte-stable JSON document (fixed key order, no timestamps).

Exit codes: 0 success, 1 usage or parse error, 2 unsupported input or
combination, 3 internal consistency failure (criterion vs direct
mismatch, oracle mismatch, scan-shell violation).

The environment variable ``ULRICH_SCAN_CAP`` overrides the default cap
on scan-box volumes, the oracle's character box included, on the
coefficients of a ``kernel`` or ``prop61`` presentation matrix, on the
section-map cells of a ``kernel --random`` surjectivity certificate, on
the section-map cells of each rank-route ``kernel`` table, whether asked
for with ``--twist`` or by the orthogonality conditions, and on the
entries (dim + 1) of a table on any variety a request names.

``run`` may be called many times in one process; the parsers are built on
the first call and shared by the later ones.  A request that starts with
a command's name is parsed once, by that command's own parser; any other
argv (empty, an unknown name, a leading option) goes to the top-level
parser, whose messages, exit codes and help text are the same.  A variety
text is parsed once per process (``picard.parse_variety`` interns it), and
the candidate-free setup of the pullback criterion is built once per
(X, E, A) (``ulrich._setup_for``).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import kernelbundle, search
from .cohomology import _check_cap, cohomology, euler_characteristic, toric_cech_oracle
from .errors import EngineError, ParseError
from .picard import (
    ProjBundle,
    is_very_ample,
    parse_bundle,
    parse_divisor,
    parse_variety,
)
from .search import SearchBox
from .ulrich import (
    direct_ulrich_check,
    is_ulrich,
    pullback_ulrich_criterion,
    semiorthogonality_probe,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


@functools.cache
def _build_parser() -> tuple[_Parser, dict]:
    """The one top-level parser of this process and its commands' parsers
    by name, built on the first ``run``: every ``parse_args`` returns a
    fresh namespace and leaves the parser as it was."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON")
    common.add_argument("--minus-basis", action="store_true",
                        help="read Hirzebruch coordinates as (f, C-) instead "
                             "of the internal (f, C+)")

    parser = _Parser(prog="ulrich",
                     description="exact sheaf cohomology and Ulrich-bundle "
                                 "search on projective bundles")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coh", parents=[common], help="cohomology table")
    p.add_argument("variety")
    p.add_argument("bundle")

    p = sub.add_parser("chi", parents=[common], help="Euler characteristic")
    p.add_argument("variety")
    p.add_argument("bundle")

    p = sub.add_parser("ample", parents=[common], help="very-ampleness test")
    p.add_argument("variety")
    p.add_argument("divisor")

    p = sub.add_parser("ulrich", parents=[common], help="Ulrich definition check")
    p.add_argument("variety")
    p.add_argument("bundle")
    p.add_argument("--pol", required=True, help="polarisation divisor")

    p = sub.add_parser("criterion", parents=[common],
                       help="base-side pullback Ulrich criterion")
    p.add_argument("pb", help="projective bundle PB(base;...)")
    p.add_argument("bundle", help="split bundle on the base")
    p.add_argument("--pol", required=True, help="base divisor A")

    p = sub.add_parser("direct", parents=[common],
                       help="direct Ulrich check on P(E), cross-asserted")
    p.add_argument("pb")
    p.add_argument("bundle")
    p.add_argument("--pol", required=True)

    p = sub.add_parser("probe", parents=[common],
                       help="semiorthogonality probe Hom(pullback L1, pullback L2 (-pH))")
    p.add_argument("pb")
    p.add_argument("l1")
    p.add_argument("l2")
    p.add_argument("-p", type=int, required=True, dest="twist")

    p = sub.add_parser("enum-zero", parents=[common],
                       help="line bundles with no cohomology in a box")
    p.add_argument("variety")
    p.add_argument("--box", type=int, required=True)

    p = sub.add_parser("enum-ulrich", parents=[common],
                       help="Ulrich line bundles in a box")
    p.add_argument("variety")
    p.add_argument("--pol", required=True)
    p.add_argument("--box", type=int, required=True)

    p = sub.add_parser("search-pb", parents=[common],
                       help="base line bundles F with pullback(F)(D) Ulrich")
    p.add_argument("pb")
    p.add_argument("--pol", required=True)
    p.add_argument("--box", type=int, required=True)

    p = sub.add_parser("kernel", parents=[common],
                       help="kernel-bundle presentation on P^n")
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--sym", action="store_true",
                       help="symmetric-power presentation instead of staircase")
    group.add_argument("--random", type=int, metavar="SEED",
                       help="seeded random matrix with staircase dimensions")
    p.add_argument("--twist", type=int, default=None,
                   help="also print the kernel cohomology table at this twist")

    p = sub.add_parser("prop61", parents=[common],
                       help="rank-n Ulrich construction on P(O(1)+O^d) over P^n")
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--box", type=int, default=8, help="line-bundle search box")
    p.add_argument("--bound", type=int, default=4,
                   help="presentation parameter bound")

    p = sub.add_parser("oracle", parents=[common],
                       help="toric Cech cross-check of the engine")
    p.add_argument("variety")
    p.add_argument("divisor")

    return parser, sub.choices


def _scan_cap() -> int | None:
    raw = os.environ.get("ULRICH_SCAN_CAP")
    return int(raw) if raw else None


def _emit(payload: dict, as_json: bool, render) -> None:
    """Prints the JSON payload, or the human lines that ``render()``
    returns: they are built only when they are printed."""
    if as_json:
        print(json.dumps(payload))
    else:
        for line in render():
            print(line)


def _report_lines(report) -> list:
    lines = [f"candidate:    {report.candidate}",
             f"polarisation: {report.polarisation}",
             f"verdict:      {'Ulrich' if report.verdict else 'not Ulrich'}"
             + (" (generic model)" if report.generic else "")]
    for c in report.checks:
        lines.append(f"  {c.label:>6}: h = {c.table.h}  "
                     f"{'ok' if c.ok else 'NONZERO'}")
    for note in report.notes:
        lines.append(f"note: {note}")
    return lines


def _scan_lines(result) -> list:
    lines = [f"results: {[list(c) for c in result.results]}"]
    if result.closed_form is not None:
        summary = result.closed_form.get("members",
                                         result.closed_form.get("families"))
        lines.append(f"closed form: {summary}")
    for note in result.erratum_notes:
        lines.append(f"note: {note}")
    return lines


def _prop61_lines(result) -> list:
    lines = _report_lines(result.report)
    if result.presentation is not None:
        lines.append(f"presentation: {result.presentation}")
    return lines


def _scan_output(variety_text: str, result) -> tuple:
    """Scan output; the F_r closed form and its notes are shown for the
    names F<r>/P1xP1 only, PB(P1;[0],[r]) prints bare results as pinned in
    bench/references.  No generic-curve note comes with a closed form."""
    if "PB" in variety_text and result.closed_form is not None:
        result = search.ScanResult(result.results)
    return result.to_json(), functools.partial(_scan_lines, result)


def _dispatch(args, cap: int | None) -> tuple:
    """Returns (payload, renderer of the human lines) plus an optional
    exit-code override; ``cap`` is the scan cap of this request
    (``_scan_cap``)."""
    minus = args.minus_basis
    if args.command == "coh":
        v = _parse_variety(args.variety, cap)
        bundle = parse_bundle(args.bundle, v, minus)
        table = cohomology(v, bundle)
        return table.to_json(), lambda: [str(table)]
    if args.command == "chi":
        v = _parse_variety(args.variety, cap)
        bundle = parse_bundle(args.bundle, v, minus)
        chi = euler_characteristic(v, bundle)
        return {"chi": chi}, lambda: [f"chi = {chi}"]
    if args.command == "ample":
        v = _parse_variety(args.variety, cap)
        d = parse_divisor(args.divisor, v, minus)
        verdict = is_very_ample(v, d)
        payload = {"very_ample": bool(verdict),
                   "sufficient_only": verdict.sufficient_only}
        return payload, lambda: [f"very ample: {bool(verdict)}"
                                 + (" (sufficient bound only)" if verdict.sufficient_only
                                    else "")]
    if args.command == "ulrich":
        v = _parse_variety(args.variety, cap)
        bundle = parse_bundle(args.bundle, v, minus)
        pol = parse_divisor(args.pol, v, minus)
        report = is_ulrich(v, bundle, pol)
        return report.to_json(), functools.partial(_report_lines, report)
    if args.command in ("criterion", "direct"):
        pb = _parse_pb(args.pb, cap)
        bundle = parse_bundle(args.bundle, pb.base, minus)
        pol = parse_divisor(args.pol, pb.base, minus)
        if args.command == "criterion":
            report = pullback_ulrich_criterion(pb.base, pb.summands, bundle, pol)
        else:
            report = direct_ulrich_check(pb, bundle, pol)
        return report.to_json(), functools.partial(_report_lines, report)
    if args.command == "probe":
        pb = _parse_pb(args.pb, cap)
        l1 = parse_divisor(args.l1, pb.base, minus)
        l2 = parse_divisor(args.l2, pb.base, minus)
        table = semiorthogonality_probe(pb, l1, l2, args.twist)
        return table.to_json(), lambda: [str(table)]
    if args.command == "enum-zero":
        v = _parse_variety(args.variety, cap)
        box = SearchBox.symmetric(v, args.box)
        result = search.zero_cohomology_line_bundles(v, box, cap)
        return _scan_output(args.variety, result)
    if args.command == "enum-ulrich":
        v = _parse_variety(args.variety, cap)
        pol = parse_divisor(args.pol, v, minus)
        box = SearchBox.symmetric(v, args.box)
        result = search.ulrich_line_bundles(v, pol, box, cap)
        return _scan_output(args.variety, result)
    if args.command == "search-pb":
        pb = _parse_pb(args.pb, cap)
        pol = parse_divisor(args.pol, pb.base, minus)
        box = SearchBox.symmetric(pb.base, args.box)
        result = search.pullback_ulrich_line_search(pb, pol, box, cap)
        return result.to_json(), functools.partial(_scan_lines, result)
    if args.command == "kernel":
        return _run_kernel(args, cap)
    if args.command == "prop61":
        result = kernelbundle.prop61_builder(args.n, args.d,
                                             line_box=args.box,
                                             presentation_bound=args.bound,
                                             cap=cap)
        return result.to_json(), functools.partial(_prop61_lines, result)
    if args.command == "oracle":
        v = _parse_variety(args.variety, cap)
        d = parse_divisor(args.divisor, v, minus)
        # the oracle first: a request over the cap is refused before any work
        cech = toric_cech_oracle(v, d, cap)
        engine = cohomology(v, d)
        agree = engine.h == cech.h
        payload = {"engine": engine.to_json(), "oracle": cech.to_json(),
                   "agree": agree}
        # a disagreement is an engine bug: report it, but exit 3
        return (payload, lambda: [f"engine: {engine}", f"oracle: {cech}", f"agree: {agree}"],
                0 if agree else 3)
    raise ParseError(f"unknown command {args.command!r}")


def _parse_variety(text: str, cap: int | None):
    """The variety ``text`` names, refused with ``BoxTooLarge`` before any
    table is built when a table on it (dim + 1 entries) exceeds ``cap``.
    The variety is interned, but the cap may change between requests, so
    the check is made on every one."""
    v = parse_variety(text)
    _check_cap(v.dim + 1, cap, "variety table entries")
    return v


def _parse_pb(text: str, cap: int | None) -> ProjBundle:
    v = _parse_variety(text, cap)
    if not isinstance(v, ProjBundle):
        raise ParseError(f"expected a projective bundle PB(...), got {text!r}")
    return v


def _run_kernel(args, cap: int | None) -> tuple:
    kind = ("random" if args.random is not None
            else "sym-euler" if args.sym else "staircase")
    kernelbundle.check_presentation_size(kind, args.n, args.d, cap)
    if args.random is not None:
        pres = kernelbundle.random_presentation(args.n, args.d, args.random, cap)
    elif args.sym:
        pres = kernelbundle.sym_euler_presentation(args.n, args.d)
    else:
        pres = kernelbundle.staircase_presentation(args.n, args.d)
    if args.twist is not None:
        kernelbundle.check_section_map_size(pres, args.twist, cap)
        table = kernelbundle.kernel_cohomology(pres, args.twist)
        payload = {"presentation": pres.to_json(),
                   "twist": args.twist, "table": table.to_json()}
        return payload, lambda: (_presentation_lines(pres)
                                 + [f"H(F({args.twist:+d})): {table}"])
    lemma = kernelbundle.lemma_conditions_check(pres, cap)
    payload = {"presentation": pres.to_json(), "lemma": lemma.to_json()}
    return payload, lambda: (
        _presentation_lines(pres)
        + [f"orthogonality conditions: {'pass' if lemma.passed else 'FAIL'}"]
        + [f"  {check.label}: h = {check.table.h}" for check in lemma.checks])


def _presentation_lines(pres) -> list:
    return [f"presentation: {pres}",
            f"map: O({pres.matrix.d})^{pres.matrix.b1} -> "
            f"O({pres.matrix.d + 1})^{pres.matrix.b2}, kernel rank {pres.rank}",
            f"surjectivity: {pres.surjectivity.method} "
            f"(exact={pres.surjectivity.exact})"]


def _parse(argv) -> argparse.Namespace:
    """The namespace of ``argv``, parsed once: by its command's parser when
    ``argv[0]`` names one, else by the top-level parser."""
    parser, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    return command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


def run(argv) -> int:
    """Execute one CLI request; returns the process exit code, 0 after a
    help request."""
    try:
        args = _parse(argv)
        out = _dispatch(args, _scan_cap())
    except SystemExit as done:  # only argparse exits: after printing help
        return done.code
    except EngineError as err:
        print(json.dumps({"error": err.code, "detail": str(err)}))
        return err.exit_code
    payload, render = out[0], out[1]
    code = out[2] if len(out) > 2 else 0
    _emit(payload, args.json, render)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
