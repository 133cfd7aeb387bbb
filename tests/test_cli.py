"""CLI surface: exit codes, golden outputs, README examples, stability."""

import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

import ulrichbundles
from ulrichbundles import cli, picard
from ulrichbundles.cli import run
from ulrichbundles.ulrich import _setup_for

from fuzz import fuzz
from towers import rank2_tower

GOLDEN_DIR = Path(__file__).parent / "goldens"
README = Path(__file__).parent.parent / "README.md"

GOLDEN_COMMANDS = {
    "coh_p2_canonical.json": ["coh", "P2", "[-3]", "--json"],
    "ulrich_f1_section.json": ["ulrich", "F1", "[0,1]", "--pol", "[1,1]", "--json"],
    "enum_ulrich_f2_steep.json": ["enum-ulrich", "F2", "--pol", "[1,2]",
                                  "--box", "8", "--json"],
    "enum_zero_f2.json": ["enum-zero", "F2", "--box", "6", "--json"],
    "oracle_f2_canonical.json": ["oracle", "F2", "[0,-2]", "--json"],
    "criterion_blowup.json": ["criterion", "PB(P2;[1],[0])", "[-1]",
                              "--pol", "[1]", "--json"],
    "kernel_staircase_2_1.json": ["kernel", "2", "1", "--json"],
    "prop61_3_1.json": ["prop61", "3", "1", "--json"],
}


def run_cli(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(args)
    return code, buf.getvalue()


class TestGoldens:
    @pytest.mark.parametrize("name,args", sorted(GOLDEN_COMMANDS.items()))
    def test_matches_committed_output(self, name, args):
        code, out = run_cli(args)
        assert code == 0
        assert out == (GOLDEN_DIR / name).read_text()

    @pytest.mark.parametrize("name,args", sorted(GOLDEN_COMMANDS.items()))
    def test_byte_stable(self, name, args):
        assert run_cli(args) == run_cli(args)


class TestExitCodes:
    def test_success(self):
        code, out = run_cli(["coh", "P2", "[-3]", "--json"])
        assert code == 0
        assert json.loads(out) == {"h": [0, 0, 1], "chi": 1, "generic": False}

    def test_parse_error_is_one(self):
        code, out = run_cli(["coh", "Q7", "[1]", "--json"])
        assert code == 1
        assert json.loads(out)["error"] == "parse-error"

    def test_usage_error_is_one(self):
        code, _ = run_cli(["enum-ulrich", "F2", "--box", "3"])  # missing --pol
        assert code == 1

    def test_unsupported_is_two(self):
        code, out = run_cli(["chi", "C3", "[2]", "--json"])
        assert code == 2
        assert json.loads(out)["error"] == "generic-mode-unsupported"

    def test_negative_hirzebruch_is_two(self):
        code, out = run_cli(["coh", "F-1", "[1,1]", "--json"])
        assert code == 2
        assert json.loads(out)["error"] == "unsupported-variety"

    def test_bad_polarisation_is_two(self):
        code, out = run_cli(["ulrich", "F2", "[0,1]", "--pol", "[0,1]", "--json"])
        assert code == 2
        assert json.loads(out)["error"] == "not-very-ample"

    def test_oracle_mismatch_is_three(self, monkeypatch):
        import importlib

        cli_mod = importlib.import_module("ulrichbundles.cli")
        from ulrichbundles import CohomologyTable

        monkeypatch.setattr(cli_mod, "toric_cech_oracle",
                            lambda v, d, cap: CohomologyTable.make((7, 0, 0)))
        code, out = run_cli(["oracle", "P2", "[1]", "--json"])
        assert code == 3
        assert json.loads(out)["agree"] is False

    def test_negative_table_is_three(self, monkeypatch):
        # a negative dimension is an engine bug: here the binomial of the
        # closed P^n table; the module comes from sys.modules, as the
        # attribute ulrichbundles.cohomology is the function
        monkeypatch.setattr(sys.modules["ulrichbundles.cohomology"], "comb",
                            lambda n, k: -1)
        code, out = run_cli(["coh", "P2", "[1]", "--json"])
        assert code == 3
        assert json.loads(out.splitlines()[-1]) == {
            "error": "internal-inconsistency",
            "detail": "negative cohomology dimension in (-1, 0, 0)"}

    def test_probe_bad_twist_is_two(self):
        code, out = run_cli(["probe", "PB(P1;[0],[3])", "[0]", "[0]",
                             "-p", "5", "--json"])
        assert code == 2
        assert json.loads(out)["error"] == "bad-twist"

    def test_negative_n_sym_kernel_is_two(self):
        # the monomials were enumerated before n was checked, and recursed
        # without end for n = -1
        code, out = run_cli(["kernel", "-1", "1", "--sym", "--json"])
        assert code == 2
        assert json.loads(out) == {"error": "unsupported-variety",
                                   "detail": "need n >= 1, d >= 0; got (-1, 1)"}


class TestGrammarFuzz:
    def test_seeded_requests_end_inside_the_contract(self):
        # seed 1 holds a `kernel -1 -1 --sym` request
        assert fuzz(1) == 400


class TestScanCap:
    def test_env_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("ULRICH_SCAN_CAP", "10")
        code, out = run_cli(["enum-zero", "F2", "--box", "8", "--json"])
        assert code == 2
        assert json.loads(out)["error"] == "box-too-large"

    def test_env_cap_can_widen(self, monkeypatch):
        monkeypatch.setenv("ULRICH_SCAN_CAP", "100000")
        code, _ = run_cli(["enum-zero", "F2", "--box", "8", "--json"])
        assert code == 0


class TestVarietySizeCap:
    """A table on P^n has n + 1 entries; a variety whose tables exceed the
    scan cap is refused before any table is built."""

    def test_huge_projective_space_refused(self):
        start = time.perf_counter()
        code, out = run_cli(["coh", "P9999999", "[0]", "--json"])
        assert code == 2 and time.perf_counter() - start < 0.1
        assert json.loads(out) == {
            "error": "box-too-large",
            "detail": "variety table entries 10000000 exceeds cap 1000000"}

    def test_table_at_the_cap_answers(self):
        code, out = run_cli(["coh", "P999999", "[0]", "--json"])
        assert code == 0
        assert json.loads(out)["h"] == [1] + [0] * 999999

    def test_cap_follows_the_scan_cap(self, monkeypatch):
        # P3 answers, and is interned, before the cap is lowered: the check
        # is made per request, not once per variety
        monkeypatch.delenv("ULRICH_SCAN_CAP", raising=False)
        assert run_cli(["chi", "P3", "[1]"])[0] == 0
        monkeypatch.setenv("ULRICH_SCAN_CAP", "3")
        assert run_cli(["chi", "P2", "[1]"])[0] == 0
        for argv in (["chi", "P3", "[1]"], ["criterion", "PB(P2;[0],[1])", "[0]",
                                             "--pol", "[1]"]):
            code, out = run_cli(argv + ["--json"])
            assert code == 2 and json.loads(out)["error"] == "box-too-large"


class TestMinusBasis:
    def test_canonical_in_minus_coordinates(self):
        plus = run_cli(["coh", "F2", "[0,-2]", "--json"])
        minus = run_cli(["coh", "F2", "[-4,-2]", "--minus-basis", "--json"])
        assert plus == minus


class TestHirzebruchAsBundle:
    """F<r> is PB(P1;[0],[r]): the bundle commands accept it as such."""

    @pytest.mark.parametrize("command", [
        "criterion {} [-1] --pol [1]",
        "direct {} [-1] --pol [1]",
        "probe {} [0] [1] -p 1",
        "search-pb {} --pol [1] --box 3",
    ])
    @pytest.mark.parametrize("name, spelled", [("F2", "PB(P1;[0],[2])"),
                                               ("P1xP1", "PB(P1;[0],[0])")])
    def test_bundle_commands_accept_f_names(self, command, name, spelled):
        code, out = run_cli(command.format(name).split() + ["--json"])
        assert code == 0
        assert (code, out) == run_cli(command.format(spelled).split() + ["--json"])

    def test_scan_closed_form_printed_for_the_name_only(self):
        code, named = run_cli(["enum-ulrich", "F1", "--pol", "[2,1]", "--box", "4",
                               "--json"])
        assert code == 0 and "closed_form" in json.loads(named)
        code, spelled = run_cli(["enum-ulrich", "PB(P1;[0],[1])", "--pol", "[2,1]",
                                 "--box", "4", "--json"])
        assert code == 0
        assert json.loads(spelled) == {"results": json.loads(named)["results"],
                                       "erratum_notes": []}

    def test_nested_bundle_commands(self):
        code, out = run_cli(["coh", "PB(PB(P1;[0],[1]);[0,0],[1,0])", "[0,0,0]",
                             "--json"])
        assert code == 0 and json.loads(out)["h"] == [1, 0, 0, 0]
        code, out = run_cli(["direct", "PB(F1;[0,0],[1,0])", "[0,0]",
                             "--pol", "[1,1]", "--json"])
        assert code == 0 and json.loads(out)["method"] == "direct"


class TestCriterionOverRuledSurfaces:
    def test_d_prime_undecided_over_a_ruled_surface_on_a_curve(self):
        # D' = [7,2] has H-coefficient 2 over C1, where only k = 1 is decided
        args = ["PB(PB(C1;[0],[1]);[0,0],[1,0])", "[0,0]", "--pol", "[3,1]"]
        code, out = run_cli(["criterion", *args])
        assert code == 0
        assert "k=0: h = (0, 0, 8)  NONZERO" in out
        assert "note: D' very ample: undecided (reported, not assumed)" in out
        code, out = run_cli(["direct", *args])
        assert code == 0
        assert "-3D: h = (0, 0, 0, 8)  NONZERO" in out
        assert "note: criterion agrees: False" in out


class TestRepeatedCalls:
    # pairs that differ only in a flag, where the second call must get the
    # defaults back, and failures next to successes
    SEQUENCE = [
        ["coh", "F2", "[-4,-2]", "--minus-basis", "--json"],
        ["coh", "F2", "[-4,-2]", "--json"],
        ["coh", "F2", "[-4,-2]"],
        ["coh", "Q7", "[1]", "--json"],  # parse error
        ["enum-ulrich", "F2", "--box", "3"],  # usage error: no --pol
        ["enum-ulrich", "F2", "--pol", "[1,2]", "--box", "3"],
        ["kernel", "2", "1", "--sym", "--twist", "1", "--json"],
        ["kernel", "2", "1", "--sym", "--random", "1"],  # usage error: exclusive
        ["kernel", "2", "1"],
        ["kernel", "2", "1", "--random", "1", "--twist", "1"],
        ["coh", "F2"],  # usage error: no bundle
        ["kernel", "2", "1", "--twist", "1"],
        ["kernel", "2", "1", "--sym", "--random", "1"],
        ["prop61", "2", "1", "--box", "3"],
        ["prop61", "2", "1"],
        ["probe", "PB(P1;[0],[3])", "[0]", "[1]", "-p", "1", "--json"],
        ["probe", "PB(P1;[0],[3])", "[0]", "[1]", "-p", "0", "--json"],
    ]

    @staticmethod
    def first_call(args):
        """(exit code, stdout) of args as the only call of a fresh process."""
        env = dict(os.environ,
                   PYTHONPATH=str(Path(ulrichbundles.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "ulrichbundles.cli", *args],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        return proc.returncode, proc.stdout

    def test_no_state_leaks_between_calls(self):
        fresh = {tuple(args): self.first_call(args) for args in self.SEQUENCE}
        order = self.SEQUENCE + self.SEQUENCE[::-1] + self.SEQUENCE[::2]
        for args in order:
            assert run_cli(args) == fresh[tuple(args)], args

    def test_interned_varieties_answer_as_fresh_ones(self, monkeypatch):
        # every request of the cheap half of each workload's seed-1 list
        # gets the same exit code and stdout from a variety parsed, and a
        # criterion setup built, for it alone as from ones shared with
        # every request before it
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
        import workloads

        memos = (picard._intern_variety, _setup_for)
        hit = set()
        for name in workloads.WORKLOADS:
            reqs = sorted(workloads.requests(name, 1), key=lambda r: r.points)
            argvs = [list(r.argv) for r in reqs[: len(reqs) // 2]]
            outcomes = []
            for cold in (True, False):
                for memo in memos:
                    memo.cache_clear()
                outcomes.append([])
                for argv in argvs:
                    if cold:
                        for memo in memos:
                            memo.cache_clear()
                    outcomes[-1].append(run_cli(argv))
            assert outcomes[0] == outcomes[1], name
            hit.update(memo for memo in memos if memo.cache_info().hits)
        assert hit == set(memos)

    def test_warm_pass_builds_no_projective_bundle(self, monkeypatch):
        # after one pass of the seed-1 pushforward list, its criterion and
        # direct requests find their P(E), D's very-ampleness and Sym^k
        # terms in the setup memo, and its varieties interned
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
        import workloads

        argvs = [list(r.argv) for r in workloads.requests("pushforward", 1)]
        assert {"criterion", "direct"} <= {argv[0] for argv in argvs}
        for argv in argvs:
            run_cli(argv)
        built = []
        original = picard.ProjBundle.__post_init__

        def spy(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(picard.ProjBundle, "__post_init__", spy)
        for argv in argvs:
            run_cli(argv)
        assert built == []

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()
        cli._build_parser.cache_clear()
        for args in self.SEQUENCE:
            run_cli(args)
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, len(self.SEQUENCE) - 1)


# one small valid request per command
VALID_REQUESTS = {
    "coh": ["coh", "P2", "[-3]"],
    "chi": ["chi", "F1", "[1,2]"],
    "ample": ["ample", "F1", "[1,1]"],
    "ulrich": ["ulrich", "F1", "[0,1]", "--pol", "[1,1]"],
    "criterion": ["criterion", "PB(P2;[1],[0])", "[-1]", "--pol", "[1]"],
    "direct": ["direct", "PB(P2;[1],[0])", "[-1]", "--pol", "[1]"],
    "probe": ["probe", "PB(P1;[0],[3])", "[0]", "[1]", "-p", "1"],
    "enum-zero": ["enum-zero", "F2", "--box", "2"],
    "enum-ulrich": ["enum-ulrich", "F2", "--pol", "[1,2]", "--box", "2"],
    "search-pb": ["search-pb", "PB(P1;[0],[1])", "--pol", "[1]", "--box", "2"],
    "kernel": ["kernel", "2", "1", "--twist", "1"],
    "prop61": ["prop61", "2", "1", "--box", "3"],
    "oracle": ["oracle", "F2", "[0,-2]"],
}
# each request without one thing it requires: an option where it has one
MISSING = {
    "coh": ["coh", "P2"],
    "chi": ["chi", "F1"],
    "ample": ["ample", "F1"],
    "ulrich": ["ulrich", "F1", "[0,1]"],
    "criterion": ["criterion", "PB(P2;[1],[0])", "[-1]"],
    "direct": ["direct", "PB(P2;[1],[0])", "[-1]"],
    "probe": ["probe", "PB(P1;[0],[3])", "[0]", "[1]"],
    "enum-zero": ["enum-zero", "F2"],
    "enum-ulrich": ["enum-ulrich", "F2", "--box", "2"],
    "search-pb": ["search-pb", "PB(P1;[0],[1])", "--box", "2"],
    "kernel": ["kernel", "2", "--twist", "1"],
    "prop61": ["prop61", "2", "--box", "3"],
    "oracle": ["oracle", "F2"],
}
# the integer argument each request takes, and a prefix of each long
# option (``--bo`` is ambiguous on prop61, which has --box and --bound)
INTEGER = {"probe": "-p", "enum-zero": "--box", "enum-ulrich": "--box",
           "search-pb": "--box", "kernel": "n", "prop61": "n"}
ABBREVIATED = {"--pol": "--po", "--box": "--bo", "--twist": "--tw"}


def parser_shapes():
    """(label, argv) for every shape of request the parsers tell apart."""
    for command, argv in VALID_REQUESTS.items():
        yield f"{command}-valid", argv
        yield f"{command}-json", argv + ["--json"]
        yield f"{command}-help", argv + ["-h"]
        yield f"{command}-missing", MISSING[command]
        yield f"{command}-unknown-flag", argv + ["--frobnicate"]
        yield f"{command}-extra-positional", argv + ["extra"]
        integer = INTEGER.get(command)
        if integer is not None:
            i = 1 if integer == "n" else argv.index(integer) + 1
            yield f"{command}-non-integer", argv[:i] + ["x"] + argv[i + 1:]
        yield (f"{command}-abbreviated",
               [ABBREVIATED.get(t, t) for t in argv] + ["--js", "--min"])
    yield "prop61-ambiguous", ["prop61", "2", "1", "--b", "3"]
    yield "kernel-exclusive", ["kernel", "2", "1", "--sym", "--random", "1"]
    yield "empty", []
    yield "help", ["-h"]
    yield "unknown-command", ["frobnicate", "P2", "[0]"]
    yield "abbreviated-command", ["co", "P2", "[0]"]
    yield "json-first", ["--json", "coh", "P2", "[-3]"]
    yield "dashdash-first", ["--", "coh", "P2", "[-3]"]


def top_level_run(argv, monkeypatch):
    """(exit code, stdout) of ``run`` with every argv parsed by the
    top-level parser's own ``parse_args``: no command is found by name."""
    parser, _ = cli._build_parser()
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_build_parser", lambda: (parser, {}))
        return run_cli(argv)


class TestParseOnce:
    """A request that names a command is parsed once, by that command's
    parser; every outcome is the top-level parser's."""

    @pytest.mark.parametrize("argv", [pytest.param(argv, id=label)
                                      for label, argv in parser_shapes()])
    def test_same_outcome_as_the_top_level_parser(self, argv, monkeypatch):
        assert run_cli(argv) == top_level_run(argv, monkeypatch)

    @pytest.mark.parametrize("command", sorted(VALID_REQUESTS))
    def test_same_namespace(self, command):
        argv = VALID_REQUESTS[command] + ["--json"]
        parser, _ = cli._build_parser()
        assert vars(cli._parse(argv)) == vars(parser.parse_args(argv))

    def test_command_request_skips_the_top_level_parser(self, monkeypatch):
        parser, _ = cli._build_parser()

        def refuse(*args, **kwargs):
            raise AssertionError("top-level parse of a command request")

        monkeypatch.setattr(parser, "parse_args", refuse)
        code, out = run_cli(["coh", "P2", "[-3]"])
        assert code == 0 and out.startswith("h = (0, 0, 1)")

    @pytest.mark.parametrize("argv,usage", [
        pytest.param(["coh", "-h"], "usage: ulrich coh ", id="coh"),
        pytest.param(["-h"], "usage: ulrich ", id="top-level"),
        pytest.param(["kernel", "2", "1", "--help"], "usage: ulrich kernel ",
                     id="kernel"),
    ])
    def test_help_returns_zero(self, argv, usage):
        code, out = run_cli(argv)
        assert code == 0 and out.startswith(usage)
        assert "options:" in out or "optional arguments:" in out


# sha256 of the human-mode stdout of one request per command, recorded
# while every command still built its lines before printing them
HUMAN_SHA256 = {
    "coh PB(F1;[0,0],[1,1]) [1,1,-3]":
        "63665d737efd52b68908268614e7f4f85c13e3d8c0b1ee96973330dfd5dc1f49",
    "chi PB(P2;[0],[1]) [2,3]":
        "d91b85ddd430ba5a388bdc3754454818df1290610871b7c99845f2a2840a3372",
    "ample PB(P2;[0],[1]) [1,1]":
        "cba4478cfcbf79af9aad073a24dc510d134987dfa21a9c63b907292155178167",
    "ulrich F1 [0,1] --pol [1,1]":
        "e1da8922ca33aa8358810be4ac66b20de4ca9654f5d201e03fb46edcd4397416",
    "criterion PB(P2;[1],[0]) [-1] --pol [1]":
        "4c6ffce9ca3d7aaa140c45a611858fec9c0cc3cc153acf01da70390691376453",
    "direct PB(P1;[0],[1]) [-1] --pol [1]":
        "d86f4e8370dc1cb5aad5df49816741dbc56233b6ffef4aa44188ea04e844280d",
    "probe PB(P1;[0],[3]) [0] [1] -p 1":
        "3dab37884d7b269a320acf1a0f5ede96aa245114ee8d0068d927262a85ee3cab",
    "enum-zero F3 --box 4":
        "c2be493aee05dad7d9e56db7c2c320effacf7b1cc31ed5266dc651fc522beb48",
    "enum-ulrich F3 --pol [2,1] --box 8":
        "defa4f105eb83ab028ab5085f266ac8c7c8c15c3be25497591fcceeb4a43688d",
    "search-pb PB(C2;[0],[1],[0]) --pol [6] --box 8":
        "8b8e0fe8e33c67feb60e4f5f44952dd75b0d2328f98086392d2b812daa7cda55",
    "kernel 2 1 --twist 1":
        "0ce3a9394ad16d545ebd9f794bb64e853c85b83504366622e9134129eed41be9",
    "prop61 3 1":
        "e2d7dd707ef6ce3a7742ae2a23a67f7079c02c33ba1f51598b3d178e093629ab",
    "oracle F2 [0,-2]":
        "9e85a1546bf0a6907f27968917365180f435f7cfca9df0f6915e0d22dd63b581",
}


class TestHumanOutput:
    def test_table_line(self):
        code, out = run_cli(["coh", "P2", "[-3]"])
        assert code == 0 and "h = (0, 0, 1)" in out

    def test_report_lines(self):
        code, out = run_cli(["ulrich", "F1", "[0,1]", "--pol", "[1,1]"])
        assert code == 0
        assert "verdict:      Ulrich" in out

    def test_ample_flag(self):
        code, out = run_cli(["ample", "C2", "[5]"])
        assert code == 0 and "sufficient bound only" in out

    @pytest.mark.parametrize("request_line", list(HUMAN_SHA256))
    def test_stdout_is_byte_identical(self, request_line):
        code, out = run_cli(request_line.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == HUMAN_SHA256[request_line]

    @pytest.mark.parametrize("argv", [
        ["enum-zero", "F3", "--box", "4"],
        ["enum-ulrich", "F3", "--pol", "[2,1]", "--box", "8"],
        ["search-pb", "PB(C2;[0],[1],[0])", "--pol", "[6]", "--box", "8"],
        ["ulrich", "F1", "[0,1]", "--pol", "[1,1]"],
        ["criterion", "PB(P2;[1],[0])", "[-1]", "--pol", "[1]"],
        ["direct", "PB(P1;[0],[1])", "[-1]", "--pol", "[1]"],
        ["prop61", "3", "1"],
        ["kernel", "2", "1"],
    ], ids=lambda argv: argv[0])
    def test_json_request_renders_no_lines(self, argv, monkeypatch):
        def refused(*args):
            raise AssertionError("human lines rendered under --json")
        for name in ("_scan_lines", "_report_lines", "_presentation_lines"):
            monkeypatch.setattr(cli, name, refused)
        code, out = run_cli(argv + ["--json"])
        assert code == 0
        json.loads(out)


class TestDeepTowers:
    """The merged tower walk keeps deep Bott towers interactive."""

    @staticmethod
    def timed(args):
        start = time.perf_counter()
        code, out = run_cli(args)
        return code, out, time.perf_counter() - start

    @pytest.mark.parametrize("command", ["coh", "chi"])
    def test_all_ones_class_at_depth_30(self, command):
        ones = "[" + ",".join(["1"] * 31) + "]"
        code, out, seconds = self.timed([command, rank2_tower(30), ones, "--json"])
        assert code == 0 and seconds < 1.0
        assert json.loads(out)["chi"] == comb(64, 32) // 33  # Catalan(32)

    def test_direct_check_at_depth_6(self):
        code, out, seconds = self.timed(["direct", rank2_tower(6), "[0,0,0,0,0,0]",
                                         "--pol", "[1,1,1,1,1,1]", "--json"])
        assert code == 0 and seconds < 0.3
        assert json.loads(out)["method"] == "direct"

    @pytest.mark.parametrize("command, bound", [("direct", 1.0), ("criterion", 0.6)])
    def test_zero_candidate_at_depth_10(self, command, bound):
        # one merged walk per check, not one per base twist or Sym^k summand
        zeros, ones = "[" + ",".join(["0"] * 10) + "]", "[" + ",".join(["1"] * 10) + "]"
        code, out, seconds = self.timed([command, rank2_tower(10), zeros, "--pol", ones,
                                         "--json"])
        assert code == 0 and seconds < bound
        assert json.loads(out)["method"] == command


def readme_blocks(language):
    """The bodies of the README's fenced blocks in the given language."""
    blocks = []
    in_block = False
    for line in README.read_text().splitlines():
        if line.strip() == "```" + language:
            in_block = True
            blocks.append([])
        elif in_block and line.strip() == "```":
            in_block = False
        elif in_block:
            blocks[-1].append(line)
    return blocks


class TestReadmeExamples:
    def test_every_console_block_runs_and_matches(self):
        blocks = readme_blocks("console")
        assert blocks, "README must document console examples"
        checked = 0
        for block in blocks:
            i = 0
            while i < len(block):
                line = block[i]
                assert line.startswith("$ ulrich "), f"unexpected line {line!r}"
                args = shlex.split(line[len("$ ulrich "):])
                expected = []
                i += 1
                while i < len(block) and not block[i].startswith("$ "):
                    expected.append(block[i])
                    i += 1
                code, out = run_cli(args)
                assert code == 0, f"{line!r} exited {code}: {out}"
                assert out.rstrip("\n") == "\n".join(expected).rstrip("\n"), line
                checked += 1
        assert checked >= 4

    def test_every_python_block_runs(self):
        blocks = readme_blocks("python")
        assert blocks, "README must document library examples"
        for block in blocks:
            exec(compile("\n".join(block), str(README), "exec"), {})
