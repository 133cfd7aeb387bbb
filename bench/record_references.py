"""Record the expected exit code and stdout digest of every request.

    python3 bench/record_references.py [workload ...]

Runs every variant of every slot of the named workloads (all four by
default) through ``cli.run`` once and writes ``references/<workload>.json``.
A request whose output disagrees with its independent answer in
``checks.py`` is not recorded; the script then exits with code 1.  Run it
only on a commit whose answers are trusted: the benchmark counts every
later deviation from these files as a failed request.
"""

from __future__ import annotations

import json
import sys

import run
import workloads
from checks import check


def record(cli, workload: str) -> tuple:
    entries, problems = {}, []
    slots = workloads.pool(workload)
    for index, variants in enumerate(slots):
        times = []
        for req in variants:
            code, out, elapsed, error = run.call(cli.run, req.argv)
            times.append(elapsed)
            why = repr(error) if error is not None else check(list(req.argv), code, out)
            if why is not None:
                problems.append(f"{req.key}: {why}")
                continue
            entries[req.key] = [code, run.digest(out)]
        print(f"{workload} slot {index:3d}: {min(times) * 1000:9.1f} .. "
              f"{max(times) * 1000:9.1f} ms  {variants[0].key}", file=sys.stderr)
    return entries, problems


def main(names) -> int:
    cli = run.import_cli()
    failed = False
    for workload in names or workloads.WORKLOADS:
        entries, problems = record(cli, workload)
        for p in problems:
            print(f"DISAGREES {p}", file=sys.stderr)
        failed = failed or bool(problems)
        path = run.BENCH / "references" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"commit": run.commit(), "source_sha256": run.source_digest(),
                       "requests": dict(sorted(entries.items()))}, fh, indent=0)
            fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
