"""Benchmark of the ``ulrich`` CLI, driven in-process through ``cli.run``.

    python3 bench/run.py --workload scan --seed 1 --seconds 15 --trace 0

One client sends the workload's requests in a closed loop: the next
request goes out when the previous one has returned.  The loop runs whole
passes over the seeded request list (``workloads.py``) until ``--seconds``
have elapsed, so every pass carries the same mix.  Each request's exit
code and stdout digest are compared with ``references/<workload>.json``
(recorded by ``record_references.py``), and the first pass's outputs are
also checked against the closed forms in ``checks.py``.  An exception
escaping ``cli.run`` counts as a failed request; it does not stop the run.

Times are measured around ``cli.run`` and then put on a common scale:
a fixed pure-Python calibration loop runs between groups of requests,
and every time is multiplied by CALIBRATION_REFERENCE_S over the
calibration time measured around it.  On a shared host whose speed drifts
by tens of percent from minute to minute this keeps the drift out of the
figures; a faster or slower program still moves them one for one.  The
report prints the unscaled figures next to the scaled ones.  A request's
time is the median over its passes; throughput is requests (or closed-form
points, see ``workloads.py``) per second of those times.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` runs the loop first with every layer traced (``spans.py``),
while the program's caches are as cold as in a fresh process, then
untraced, and reports the per-layer metrics per pass (self times
unscaled) plus ``trace.overhead_ratio``.  Both print every metric by name
with its unit and the environment, then one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_PROBES = 7
CALIBRATION_REFERENCE_S = 0.010
CALIBRATION_EVERY_S = 0.1
TAIL_PERCENTILES = (99, 95, 90)
MIN_BEYOND_TAIL = 10

# a fresh interpreter: import the program and generate the request list
_SETUP_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; "
                "import ulrichbundles, workloads; "
                "workloads.requests(sys.argv[3], int(sys.argv[4]))")


class MissingProgram(Exception):
    pass


def import_cli():
    """The ``ulrichbundles.cli`` module of this checkout's ``src/``."""
    if not (SRC / "ulrichbundles" / "__init__.py").is_file():
        raise MissingProgram(f"no ulrichbundles package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ulrichbundles.cli

    if SRC not in Path(ulrichbundles.__file__).resolve().parents:
        raise MissingProgram(f"ulrichbundles imported from {ulrichbundles.__file__}")
    return sys.modules["ulrichbundles.cli"]


def setup_seconds(workload: str, seed: int) -> tuple:
    """(scaled, raw) wall times of fresh interpreters that import the
    program and generate the request list."""
    scaled, raw = [], []
    before = calibration_seconds()
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP_PROBE, str(SRC), str(BENCH),
                        workload, str(seed)], check=True, stdout=subprocess.DEVNULL)
        raw.append(perf_counter() - start)
        after = calibration_seconds()
        scaled.append(raw[-1] * CALIBRATION_REFERENCE_S / statistics.fmean((before, after)))
        before = after
    return scaled, raw


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()[:16]


def load_references(workload: str) -> dict:
    path = BENCH / "references" / f"{workload}.json"
    with open(path) as fh:
        return json.load(fh)["requests"]


def call(cli_run, argv):
    """(exit code, stdout, seconds, error) of one request."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = perf_counter()
        try:
            code = cli_run(list(argv))
        except Exception as err:  # escaped cli.run: a failed request
            elapsed = perf_counter() - start
            return None, buf.getvalue(), elapsed, err
        elapsed = perf_counter() - start
    return code, buf.getvalue(), elapsed, None


def calibration_seconds() -> float:
    """Time of a fixed pure-Python loop: the yardstick of how fast the
    interpreter runs right now on this (possibly shared) host."""
    start = perf_counter()
    total, table = 0, {}
    for i in range(60000):
        total += i * i % 7
        if i % 8 == 0:
            table[i] = str(i)
    return perf_counter() - start


class Loop:
    """Whole passes over the requests until ``seconds`` have elapsed.

    Every request runs once per pass.  The calibration loop runs after
    each group of requests lasting about CALIBRATION_EVERY_S; a request's
    time is scaled by CALIBRATION_REFERENCE_S over the mean of the two
    calibrations around its group.
    """

    def __init__(self, cli_module, reqs, references, seconds: float):
        self.reqs, self.references = reqs, references
        self.times = [[] for _ in reqs]
        self.raw = [[] for _ in reqs]
        self.calibrations = [calibration_seconds()]
        self.failed = {}  # request key -> failed occurrences
        self.first_outputs = {}  # request key -> (exit code, stdout)
        self.problems = []
        self.passes = 0
        start = perf_counter()
        while self.passes == 0 or perf_counter() - start < seconds:
            group, group_start = [], perf_counter()
            for index, req in enumerate(reqs):
                # looked up per call, so a traced cli.run is the one timed
                code, out, elapsed, error = call(cli_module.run, req.argv)
                group.append((index, elapsed))
                self._verify(req, code, out, error)
                if (perf_counter() - group_start >= CALIBRATION_EVERY_S
                        or index == len(reqs) - 1):
                    self.calibrations.append(calibration_seconds())
                    scale = (CALIBRATION_REFERENCE_S
                             / statistics.fmean(self.calibrations[-2:]))
                    for i, t in group:
                        self.raw[i].append(t)
                        self.times[i].append(t * scale)
                    group, group_start = [], perf_counter()
            self.passes += 1
        self.wall = perf_counter() - start
        self.attempted = self.passes * len(reqs)
        self.per_request = [statistics.median(times) for times in self.times]
        self.raw_per_request = [statistics.median(times) for times in self.raw]
        self._check_first_pass(Counter(r.key for r in reqs))

    def _verify(self, req, code, out, error):
        if self.passes == 0:
            self.first_outputs[req.key] = (code, out)
        expected = self.references.get(req.key)
        if error is None and expected == [code, digest(out)]:
            return
        self.failed[req.key] = self.failed.get(req.key, 0) + 1
        if error is not None:
            why = "".join(traceback.format_exception_only(error)).strip()
        elif expected is None:
            why = "no reference"
        else:
            why = f"exit {code} digest {digest(out)} != reference {expected}"
        self.problems.append(f"{req.key}: {why}")

    def _check_first_pass(self, per_pass: Counter):
        for key, (code, out) in self.first_outputs.items():
            if key in self.failed:
                continue
            why = checks.check(key.split(" "), code, out)
            if why is not None:
                self.failed[key] = self.passes * per_pass[key]
                self.problems.append(f"{key}: {why}")

    @property
    def failures(self) -> int:
        return sum(self.failed.values())

    @property
    def requests_per_s(self) -> float:
        return len(self.reqs) / sum(self.per_request)


def tail_percentile(list_length: int) -> int:
    """The highest tail percentile with MIN_BEYOND_TAIL requests beyond it."""
    for q in TAIL_PERCENTILES:
        if list_length * (100 - q) / 100 >= MIN_BEYOND_TAIL:
            return q
    return TAIL_PERCENTILES[-1]


def end_to_end(loop: Loop, setup: tuple) -> tuple:
    """(metrics, notes): the scaled figures, and the unscaled ones as notes."""
    q = tail_percentile(len(loop.reqs))

    def timings(per_request, setup_times):
        cuts = statistics.quantiles(per_request, n=100, method="inclusive")
        return {
            "setup_s": statistics.median(setup_times),
            "requests_per_s": len(per_request) / sum(per_request),
            "points_per_s": sum(r.points for r in loop.reqs) / sum(per_request),
            "latency_p50_ms": statistics.median(per_request) * 1000,
            "latency_tail_ms": cuts[q - 1] * 1000,
        }

    scaled = timings(loop.per_request, setup[0])
    raw = timings(loop.raw_per_request, setup[1])
    units = {"setup_s": "s", "requests_per_s": "1/s", "points_per_s": "1/s",
             "latency_p50_ms": "ms", "latency_tail_ms": "ms"}
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in scaled.items()}
    metrics["success_ratio"] = {"value": 1 - loop.failures / loop.attempted,
                                "unit": "ratio"}
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"}
    notes = {name: f"unscaled {value:.6f}" for name, value in raw.items()}
    notes["setup_s"] += f"; median of {len(setup[0])} fresh interpreters"
    notes["requests_per_s"] += (f"; {len(loop.reqs)} requests x {loop.passes} passes "
                                f"in {loop.wall:.2f} s wall")
    cut = statistics.quantiles(loop.per_request, n=100, method="inclusive")[q - 1]
    beyond = sum(1 for x in loop.per_request if x > cut)
    notes["latency_tail_ms"] += f"; p{q} of {len(loop.reqs)} requests, {beyond} beyond"
    notes["success_ratio"] = f"failed_ratio {loop.failures / loop.attempted:.6f}"
    notes["peak_rss_mb"] = "ru_maxrss of this process"
    return metrics, notes


def commit() -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"
    top, head = out.stdout.split()
    return head if Path(top).resolve() == ROOT else "unknown (not a git checkout)"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(args) -> list:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return [
        f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds}  "
        f"trace: {args.trace}",
        f"python: {platform.python_version()}  nproc: {usable}  "
        f"cpu_count: {os.cpu_count()}",
        f"commit: {commit()}  src sha256: {source_digest()}",
    ]


def print_metrics(metrics: dict, notes: dict) -> None:
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:42s} {m['value']:>16.6f} {m['unit']}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = import_cli()
    except (MissingProgram, ImportError) as err:
        print(f"bench: cannot import the program: {err}", file=sys.stderr)
        return 2
    references = load_references(args.workload)
    reqs = workloads.requests(args.workload, args.seed)

    for line in environment(args):
        print(line)
    if args.trace:
        tracer = Tracer()
        with tracer.installed():
            traced = Loop(cli, reqs, references, args.seconds)
        plain = Loop(cli, reqs, references, args.seconds)
        loops = (traced, plain)
        metrics = tracer.metrics(traced.passes)
        metrics["trace.overhead_ratio"] = {
            "value": traced.requests_per_s / plain.requests_per_s, "unit": "ratio"}
        notes = {"trace.overhead_ratio": "traced / untraced throughput"}
        if tracer.missing:
            print(f"untraced (not found): {', '.join(tracer.missing)}")
    else:
        setup = setup_seconds(args.workload, args.seed)
        loop = Loop(cli, reqs, references, args.seconds)
        loops = (loop,)
        metrics, notes = end_to_end(loop, setup)

    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failures for lp in loops)
    print(f"requests: {len(reqs)} per pass, passes {[lp.passes for lp in loops]}, "
          f"{attempted} attempted, {failed} failed")
    for problem in sorted({p for lp in loops for p in lp.problems})[:20]:
        print(f"FAILED {problem}")
    print_metrics(metrics, notes)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
