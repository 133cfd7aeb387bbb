"""Tests of the benchmark itself.

    python -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import LAYER_METRICS, Tracer  # noqa: E402

CLI = run.import_cli()
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

# layer -> the metrics that must be nonzero on the workload the layer is
# measured on
NONZERO = {
    "scan": ["search.scan.calls", "search.scan.points", "ulrich.definition.calls",
             "ulrich.criterion.calls", "cohomology.table.calls",
             "cohomology.table.pb_calls", "picard.parse.calls", "picard.ample.calls"],
    "pushforward": ["cli.run.calls", "picard.parse.calls", "picard.ample.calls",
                    "picard.sym_power.calls", "picard.sym_power.summands",
                    "ulrich.definition.calls", "ulrich.criterion.calls",
                    "ulrich.direct.calls", "cohomology.table.calls",
                    "cohomology.table.pb_calls", "cohomology.chi.calls"],
    "kernel": ["kernelbundle.presentation.calls", "kernelbundle.presentation.exact_ratio",
               "kernelbundle.kernel_cohomology.calls", "kernelbundle.prop61.calls",
               "exactlinalg.rank.calls", "exactlinalg.rank.cells"],
    "oracle": ["cli.run.calls", "cohomology.oracle.calls", "exactlinalg.rank.calls",
               "exactlinalg.solve.calls"],
}


def cheap_requests(workload: str, seed: int = 3) -> list:
    """The cheaper half of a seed's list, so a test stays short."""
    reqs = sorted(workloads.requests(workload, seed), key=lambda r: r.points)
    return reqs[: len(reqs) // 2]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_list_other_seed_other_list(workload):
    first = [r.argv for r in workloads.requests(workload, 11)]
    assert first == [r.argv for r in workloads.requests(workload, 11)]
    assert first != [r.argv for r in workloads.requests(workload, 12)]
    assert sorted(first) != sorted(r.argv for r in workloads.requests(workload, 12))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_possible_request_has_a_reference(workload):
    references = run.load_references(workload)
    keys = {r.key for variants in workloads.pool(workload) for r in variants}
    assert keys <= set(references)
    assert len(workloads.requests(workload, 0)) >= 100  # ten beyond p90


def test_kernel_workload_keeps_a_large_exact_rank():
    shapes = [workloads.section_map_shape("staircase", 2, 3, 9)]
    assert shapes == [(420, 546)]
    largest = max(r.points for variants in workloads.pool("kernel") for r in variants)
    assert largest >= 400 * 500


def test_oracle_character_count_matches_closed_form_examples():
    assert workloads.oracle_characters("P3", (-20,)) == 91125
    assert workloads.oracle_characters("F2", (3, -1)) == 11 * 9


def test_closed_forms_match_documented_examples():
    # README: enum-ulrich F3 --pol [2,1] --box 8 finds [1,1] and [6,0]
    assert checks.ulrich_line_members(3, (2, 1), 8) == [[1, 1], [6, 0]]
    assert checks.ulrich_line_members(0, (1, 2), 10) == [[0, 3], [1, 1]]
    assert [1, -2] in checks.zero_cohomology_members(2, 6)
    assert checks.bott_table(2, -3) == [0, 0, 1]


def test_projection_formula_chi_matches_engine():
    from ulrichbundles import euler_characteristic, parse_divisor, parse_variety

    for pb, coords in [("PB(P3;[1],[2],[3],[0],[5])", (0, 7)),
                       ("PB(F2;[0,0],[1,1],[2,0])", (1, -2, -6)),
                       ("PB(P1xP1;[0,0],[1,0])", (2, -1, -3)),
                       ("PB(P2;[0],[1])", (3, -1))]:
        v = parse_variety(pb)
        expected = euler_characteristic(v, parse_divisor(workloads._div(coords), v))
        base, summands = checks._split_pb(pb)
        assert checks.pb_line_chi(base, summands, coords) == expected


def outputs(reqs) -> list:
    return [run.call(CLI.run, r.argv)[:2] for r in reqs]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_layers_are_nonzero_and_stdout_is_unchanged(workload):
    reqs = cheap_requests(workload)
    tracer = Tracer()
    with tracer.installed():  # first, while the oracle's pattern cache is cold
        traced = outputs(reqs)
    plain = outputs(reqs)
    assert traced == plain
    bound = [f for name, m in list(sys.modules.items()) if name.startswith("ulrichbundles")
             for f in vars(m).values()]
    assert not [f for f in bound if hasattr(f, "span")]  # every binding restored
    assert not tracer.missing
    metrics = tracer.metrics(passes=1)
    assert [m for m in NONZERO[workload] if not metrics[m]["value"]] == []
    if workload == "scan":
        assert metrics["exactlinalg.rank.calls"]["value"] == 0


def test_wrong_reference_counts_as_failure_and_run_finishes():
    reqs = cheap_requests("oracle")[:6]
    references = run.load_references("oracle")
    good = run.Loop(CLI, reqs, references, seconds=0)
    assert good.failures == 0 and good.attempted == len(reqs)
    wrong = dict(references)
    wrong[reqs[0].key] = [0, "0" * 16]
    bad = run.Loop(CLI, reqs, wrong, seconds=0)
    assert bad.failures == 1 and bad.attempted == len(reqs)


def test_exception_escaping_cli_run_is_a_failure(monkeypatch):
    reqs = [r for r in cheap_requests("scan") if r.argv[0] == "enum-zero"][:2]
    monkeypatch.setenv("ULRICH_SCAN_CAP", "abc")  # int() raises ValueError
    loop = run.Loop(CLI, reqs, run.load_references("scan"), seconds=0)
    assert loop.failures == 2
    assert all("ValueError" in p for p in loop.problems)


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_names_every_declared_metric(trace):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.main(["--workload", "oracle", "--seed", "5", "--seconds", "0",
                         "--trace", str(trace)]) == 0
    result = last_json(buf.getvalue())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert [m["name"] for m in declared][:-1] == [n for n, _ in LAYER_METRICS]
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
