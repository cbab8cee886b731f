"""Run a foxhom command with gcd heuristics switched off; fail unless _prs ran.

Usage::

    PYTHONPATH=src python .github/gcd_fallback.py HEURISTIC... -- COMMAND ARGS...

Each named ``polygcd`` heuristic is replaced by one that always gives up, so
its gcds fall back to the primitive remainder sequence ``polygcd._prs``.  The
command writes its report to stdout as usual, for a diff against the run with
the heuristics on.  The exit status is the command's, or non-zero when a
heuristic name is unknown or ``_prs`` never ran: a renamed heuristic must not
turn the diff into a comparison of the heuristic with itself.
"""

import sys

from foxhom import cli, polygcd


def main(argv):
    split = argv.index("--")
    for name in argv[:split]:
        if not hasattr(polygcd, name):
            return f"polygcd has no heuristic {name!r}"
        setattr(polygcd, name, lambda *args: None)
    prs, calls = polygcd._prs, []

    def counted(*args):
        calls.append(1)
        return prs(*args)

    polygcd._prs = counted
    code = cli.main(argv[split + 1:])
    return code or (0 if calls else "the remainder sequence never ran")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
