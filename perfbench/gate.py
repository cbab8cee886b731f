"""Correctness gate for one op: exit code, recorded digest, paper invariants.

The digest covers the report's ``parameters``, ``results`` and the sha256 of
each input file.  It leaves out ``inputs[*].path``, which is absolute and so
differs between checkouts, and ``tool``.  ``expected.json`` holds the digest
of every op a workload can draw, recorded by ``record.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def op_key(argv):
    return " ".join(argv)


def load_expected():
    with open(EXPECTED_PATH) as f:
        return json.load(f)["digests"]


def body_digest(report):
    core = {
        "parameters": report["parameters"],
        "results": report["results"],
        "inputs": {label: entry["sha256"] for label, entry in report["inputs"].items()},
    }
    text = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def invariant_problems(command, report):
    """Violations of the paper's claims that the report must satisfy."""
    rows = report["results"]
    out = []
    if command == "rhs-sweep":
        out += [f"n={r['n']}: filled rank {r['rank']}"
                for r in rows if r["n"] % 2 and r["rank"] != 0]
    elif command == "sakuma":
        out += [f"n={r['n']}: order ratio {r.get('order_ratio')}"
                for r in rows if r.get("order_ratio") not in (1, 2, 4, 8)]
    elif command == "branched":
        out += [f"(n={r['n']}, k={r['k']}): betti {r['betti']}"
                for r in rows
                if _is_prime(r["n"]) and r["k"] not in (1, r["n"] - 1) and r["betti"]]
    elif command == "verify-paper":
        out += [f"item {r['item']} failed: {r['detail']}" for r in rows if not r["pass"]]
    return out


def check(argv, exit_code, stdout, expected):
    """(digest, problem) for one op's outcome; problem is None if it passed."""
    if exit_code != 0:
        return None, f"exit code {exit_code}"
    try:
        report = json.loads(stdout)
        digest = body_digest(report)
    except (ValueError, KeyError, TypeError) as exc:
        return None, f"unreadable report: {exc}"
    problems = invariant_problems(argv[0], report)
    if problems:
        return digest, "; ".join(problems)
    want = expected.get(op_key(argv))
    if want is None:
        return digest, "no recorded digest for this op"
    if digest != want:
        return digest, f"digest {digest[:12]} != recorded {want[:12]}"
    return digest, None
