"""CLI surface: exit codes, golden outputs, README examples, stability."""

import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import ulrichbundles
from ulrichbundles.cli import run

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

    def test_probe_bad_twist_is_two(self):
        code, out = run_cli(["probe", "PB(P1;[0],[3])", "[0]", "[0]",
                             "-p", "5", "--json"])
        assert code == 2
        assert json.loads(out)["error"] == "bad-twist"


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
    # pairs that differ only in a flag, and failures next to successes
    SEQUENCE = [
        ["coh", "F2", "[-4,-2]", "--minus-basis", "--json"],
        ["coh", "F2", "[-4,-2]", "--json"],
        ["coh", "F2", "[-4,-2]"],
        ["coh", "Q7", "[1]", "--json"],  # parse error
        ["enum-ulrich", "F2", "--box", "3"],  # usage error: no --pol
        ["enum-ulrich", "F2", "--pol", "[1,2]", "--box", "3"],
        ["kernel", "2", "1", "--sym", "--twist", "1", "--json"],
        ["kernel", "2", "1"],
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


class TestReadmeExamples:
    def test_every_console_block_runs_and_matches(self):
        text = README.read_text()
        blocks = []
        in_block = False
        for line in text.splitlines():
            if line.strip() == "```console":
                in_block = True
                blocks.append([])
            elif in_block and line.strip() == "```":
                in_block = False
            elif in_block:
                blocks[-1].append(line)
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
