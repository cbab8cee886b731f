"""Record the digest of every op the workloads can issue into expected.json.

Run from the root of a checkout whose answers are trusted:

    python3 perfbench/record.py

Every op must exit 0 and satisfy the paper invariants in ``gate.py``; one
that does not stops the recording and nothing is written.
"""

from __future__ import annotations

import json
import sys

import gate
import run
from workloads import WORKLOADS


def main():
    cli = run.import_cli()
    digests = {}
    for workload in WORKLOADS.values():
        for argv in workload.candidates():
            o = run.run_op(cli, argv)
            if o.exit_code != 0:
                sys.exit(f"{gate.op_key(argv)}: exit code {o.exit_code} {o.stderr}")
            report = json.loads(o.stdout)
            problems = gate.invariant_problems(argv[0], report)
            if problems:
                sys.exit(f"{gate.op_key(argv)}: {'; '.join(problems)}")
            digests[gate.op_key(argv)] = gate.body_digest(report)
            print(f"{o.seconds:8.3f}s  {gate.op_key(argv)}", flush=True)
    payload = {"recorded_with": run.environment(), "digests": dict(sorted(digests.items()))}
    gate.EXPECTED_PATH.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
