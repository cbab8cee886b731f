"""Run a command with its stdout passed through; fail when its peak RSS is too high.

Usage::

    python .github/peak_rss.py MEGABYTES -- COMMAND ARGS...

The command writes to this script's stdout unchanged, for a sha256sum of its
report.  Its peak resident set size is read from
``resource.getrusage(RUSAGE_CHILDREN).ru_maxrss`` (kilobytes on Linux) and
printed to stderr.  The exit status is the command's, or non-zero when the
peak is above MEGABYTES: a second dense copy of a large relator matrix must
fail here even when the report is right.
"""

import resource
import subprocess
import sys


def main(argv):
    split = argv.index("--")
    limit = float(argv[0])
    code = subprocess.call(argv[split + 1:])
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak RSS {peak:.0f} MB (limit {limit:g} MB)", file=sys.stderr)
    if code:
        return code
    return f"peak RSS {peak:.0f} MB is above {limit:g} MB" if peak > limit else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
