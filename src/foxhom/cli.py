"""Command-line workbench.

Subcommands: abelianize, alexander, cover, fill, sakuma, branched,
rhs-sweep, verify-paper.  Reports are deterministic: identical inputs give
byte-identical bodies, every report embeds the sha256 digest of each input
file, and sweeps merge worker results in parameter order regardless of the
worker count.

Exit codes: 0 success, 1 mathematical mismatch in verify mode, 2 input
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from math import gcd
from pathlib import Path

from . import __version__, datasets, verify
from .covers import (
    CyclicQuotientMap,
    FillingSpec,
    branched_betti,
    fill,
    h1_cover,
    reduce_job,
    reidemeister_schreier,
    sakuma_transfers,
    transfer_quotients,
)
from .fox import MissingImages, alexander_matrix, codim_one_minors, minor_polys
from .laurent import text_int
from .polygcd import laurent_gcd
from .presentations import abelianize


# the highest branched level (one cell per coprime residue, each with a
# degree n - 1 polynomial)
MAX_RANGE = 10_000
# the most (n, k) cells one branched sweep may hold: --n 1..256 --k all is
# 19 947 cells, 4.7 s (median of 3 fresh processes) and 36 MB peak RSS at
# --jobs 1 as a table, 46 MB as json, on a 2-CPU host, Python 3.11.7
MAX_CELLS = 20_000
# the highest cover level.  The kernel relator matrix reaches the Smith form
# as sparse columns, about 127n nonzeros on 4n rows for the bundled job once
# reduce_job has eliminated m1 and m2, and its time grows about as n^2.  At
# level 4000, in a fresh process on a 2-CPU host with Python 3.11.7: sakuma
# 3.3 s and 69 MB peak RSS, fill 2.9 s and 69 MB, cover 1.5 s and 60 MB, and
# rhs-sweep 2.1 s and 63 MB at the odd level 3999.  A wider job meets the
# letter cap or presentations.MAX_MATRIX_ENTRIES first
MAX_COVER_LEVEL = 4000


class InputError(Exception):
    pass


def _parse_levels(text, limit, odd_ranges=False):
    """Levels from '5', '3..9' (inclusive) or '3,5,7', sorted and distinct.

    Each end of a chunk is a ``text_int``, with the whitespace around the
    chunk stripped.  Every level lies in 1..limit: each chunk is checked on
    its bounds before a range is expanded, so no input expands more than
    ``limit`` levels.  With ``odd_ranges`` an a..b range walks its odd
    levels only.
    """
    levels = set()
    for chunk in text.split(","):
        chunk = chunk.strip()
        lo, dots, hi = chunk.partition("..")
        try:
            lo, hi = text_int(lo), text_int(hi if dots else lo)
        except ValueError:
            raise InputError(f"bad {'range' if dots else 'integer'} {chunk!r}") from None
        if hi < lo:
            raise InputError(f"empty range {chunk!r}")
        if lo < 1:
            raise InputError(f"values must be positive: {text!r}")
        if hi > limit:
            raise InputError(f"level {hi} exceeds {limit}")
        if dots and odd_ranges:
            levels.update(range(lo | 1, hi + 1, 2))
        else:
            levels.update(range(lo, hi + 1))
    if not levels:
        raise InputError(f"no levels in {text!r}")
    return tuple(sorted(levels))


def _table(headers, rows):
    lines = [list(map(str, headers))] + [list(map(str, r)) for r in rows]
    widths = [max(len(line[i]) for line in lines) for i in range(len(headers))]
    out = []
    for idx, line in enumerate(lines):
        out.append("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip())
        if idx == 0:
            out.append("  ".join("-" * w for w in widths).rstrip())
    return "\n".join(out)


def _report(command, inputs, parameters, results):
    return {
        "command": command,
        "inputs": {
            label: {"path": str(path), "sha256": datasets.file_digest(path)}
            for label, path in sorted(inputs.items())
        },
        "parameters": parameters,
        "results": results,
        "tool": {"name": "foxhom", "version": __version__},
    }


def _emit(report, fmt, table_text, output=None):
    if fmt == "json":
        body = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        digests = [
            f"# {label}: sha256 {entry['sha256'][:16]}..."
            for label, entry in report["inputs"].items()
        ]
        body = "\n".join(digests + [table_text]) + "\n"
    if output:
        Path(output).write_text(body)
    else:
        sys.stdout.write(body)


def _group_fields(group):
    return {"rank": group.rank, "torsion": list(group.torsion)}


def _group_line(group):
    return f"rank {group.rank}, torsion {list(group.torsion)}"


# ---- subcommands -----------------------------------------------------


def _cmd_abelianize(args):
    path = datasets.data_path(args.presentation)
    p = datasets.load_presentation(path)
    group = abelianize(p)
    report = _report(
        "abelianize",
        {"presentation": path},
        {"presentation": p.name},
        [{"presentation": p.name, **_group_fields(group)}],
    )
    table = f"{p.name}: {_group_line(group)}"
    _emit(report, args.format, table, args.output)
    return 0


def _cmd_alexander(args):
    path = datasets.data_path(args.presentation)
    map_path = datasets.data_path(args.map)
    p = datasets.load_presentation(path)
    try:
        phi = datasets.load_map(map_path, source=p.generators)
    except MissingImages as exc:
        raise InputError(f"{exc} of presentation {p.name} ({path})") from None
    grid = alexander_matrix(p, phi)
    result = {"presentation": p.name, "matrix": grid.to_json()}
    lines = [grid.table()]
    if args.minors:
        minors = minor_polys(grid, phi)
        delta = laurent_gcd(minors.values())
        result["minors"] = {g: str(minors[g]) for g in p.generators}
        lines.append("")
        lines.extend(f"minor[{g}] = {minors[g]}" for g in p.generators)
    else:
        delta = laurent_gcd(codim_one_minors(grid, phi))
    result["alexander_polynomial"] = str(delta)
    lines.append("")
    lines.append(f"alexander polynomial = {delta}")
    report = _report(
        "alexander",
        {"presentation": path, "map": map_path},
        {"presentation": p.name, "minors": bool(args.minors)},
        [result],
    )
    _emit(report, args.format, "\n".join(lines), args.output)
    return 0


# table headers of the per-level rows, by mode
_COVER_HEADERS = {
    "h1": ("n", "rank", "torsion"),
    "fill": ("n", "rank", "torsion"),
    "rhs": ("n", "rank", "torsion", "RHS", "flag"),
    "sakuma": ("n", "transfer quotient", "transfer module", "order ratio"),
}


def _cover_level(task):
    """One level of a cover command: (json entry, table row).

    ``task`` is (job, n, mode), the job as loaded or from
    ``covers.reduce_job``; mode is h1, fill, sakuma, or rhs (the fill with
    its rational-homology-sphere verdict).
    """
    job, n, mode = task
    p = job["presentation"]
    cover = reidemeister_schreier(p, CyclicQuotientMap(p, n, job["degrees"]))
    if mode == "sakuma":
        sak, hn = transfer_quotients(cover, job["words"])
        entry = {"n": n, "sakuma": _group_fields(sak), "hn": _group_fields(hn)}
        if sak.is_finite and hn.is_finite:
            entry["order_ratio"] = sak.order // hn.order
        return entry, (n, _group_line(sak), _group_line(hn), entry.get("order_ratio", "-"))
    group = h1_cover(cover) if mode == "h1" else fill(cover, job["fill"])
    entry = {"n": n, **_group_fields(group)}
    row = (n, group.rank, list(group.torsion))
    if mode == "rhs":
        entry["rational_homology_sphere"] = "yes" if group.rank == 0 else "no"
        entry["flag"] = "" if n % 2 else "even-n"
        row += (entry["rational_homology_sphere"], entry["flag"])
    return entry, row


def _run_tasks(fn, tasks, jobs):
    """[fn(t) for t in tasks], spread over at most ``jobs`` worker processes."""
    if jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {jobs}")
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers < 2:
        return [fn(t) for t in tasks]
    # imported here: the pool pulls in multiprocessing, a fifth of the CLI's import time
    from concurrent.futures import ProcessPoolExecutor

    # batches of cells, so that a sweep of many cheap cells does not pay one
    # round trip per cell
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=max(1, len(tasks) // (16 * workers))))


def _sweep(args, command, inputs, parameters, headers, fn, tasks, jobs=1):
    """Report fn's (json entry, table row) pairs over ``tasks``, in task order."""
    pairs = _run_tasks(fn, tasks, jobs)
    results = [entry for entry, _ in pairs]
    table = _table(headers, [row for _, row in pairs]) if args.format == "table" else None
    _emit(_report(command, inputs, parameters, results), args.format, table, args.output)
    return 0


def _cmd_cover_family(args, mode, command):
    job_path = datasets.data_path(args.job)
    job = datasets.load_job(job_path)
    n_values = _parse_levels(args.n or str(job["n"]), MAX_COVER_LEVEL)
    if mode == "fill":
        FillingSpec(job["fill"])  # raises on no slopes or an empty slope word
    if mode == "sakuma":
        sakuma_transfers(job["presentation"])  # raises on a missing generator name
    parameters = {"presentation": job["presentation"].name, "n": list(n_values), "mode": mode}
    job = reduce_job(job, max(n_values))  # once per command, after every input rule has passed
    tasks = [(job, n, mode) for n in n_values]
    return _sweep(args, command, {"job": job_path}, parameters,
                  _COVER_HEADERS[mode], _cover_level, tasks)


def _cmd_rhs_sweep(args):
    n_values = _parse_levels(args.n, MAX_COVER_LEVEL, odd_ranges=True)
    evens = [n for n in n_values if n % 2 == 0]
    if evens and not args.force:
        raise InputError(
            f"even levels {evens} need --force; the filled-cover conclusions "
            "are asserted for odd levels only"
        )
    job = reduce_job(datasets.standard_cover_job(), max(n_values))
    tasks = [(job, n, "rhs") for n in n_values]
    return _sweep(args, "rhs-sweep", {"job": datasets.data_path("cover-job")},
                  {"n": list(n_values), "force": bool(args.force)},
                  _COVER_HEADERS["rhs"], _cover_level, tasks, args.jobs)


def _branched_cell(payload):
    """One (n, k) cell of a branched sweep: (json entry, table row)."""
    delta, n, k = payload
    count = branched_betti(delta, k, n)
    betti, flag = int(count), "zero-polynomial" if count.all_roots else ""
    return {"n": n, "k": k, "betti": betti, "flag": flag}, (n, k, betti, flag)


def _cmd_branched(args):
    delta_path = datasets.data_path(args.delta)
    delta = datasets.load_poly(delta_path)
    if len(delta.vars) != 2:
        raise InputError("branched sweeps need a two-variable polynomial")
    n_values = _parse_levels(args.n, MAX_RANGE)
    try:
        ks = None if args.k == "all" else [text_int(args.k)]
    except ValueError:
        raise InputError(f"--k must be an integer or 'all', got {args.k!r}") from None
    cells = []
    for n in n_values:
        for k in ks or [r for r in range(1, n) if gcd(r, n) == 1]:
            if not (0 < k < n) or gcd(k, n) != 1:
                raise InputError(f"k={k} is not a valid coprime residue mod n={n}")
            cells.append((delta, n, k))
        if len(cells) > MAX_CELLS:
            raise InputError(f"more than {MAX_CELLS} (n, k) cells")
    return _sweep(args, "branched", {"delta": delta_path}, {"n": list(n_values), "k": args.k},
                  ("n", "k", "betti", "flag"), _branched_cell, cells, args.jobs)


def _cmd_verify(args):
    items = args.item if args.item else None
    dir = args.data_dir
    if dir is not None and not Path(dir).is_dir():
        raise InputError(f"no such data directory {dir}")
    results = verify.run_items(items, dir=dir)
    inputs = {}
    for name in verify.INPUT_FILES:
        try:
            inputs[name] = datasets.data_path(name, dir)
        except FileNotFoundError:
            pass
    rows = [(item, "pass" if ok else "FAIL", detail) for item, ok, detail in results]
    table = _table(("item", "status", "detail"), rows) if args.format == "table" else None
    report = _report(
        "verify-paper",
        inputs,
        {"items": [item for item, _, _ in results]},
        [{"item": item, "pass": ok, "detail": detail} for item, ok, detail in results],
    )
    _emit(report, args.format, table, args.output)
    return 0 if all(ok for _, ok, _ in results) else 1


@functools.cache  # built on first use, not at import
def build_parser():
    parser = argparse.ArgumentParser(
        prog="foxhom",
        description="Exact homology computations for finitely presented groups",
    )
    parser.add_argument("--version", action="version", version=f"foxhom {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "table"), default="table")
        p.add_argument("--output", help="write the report to a file instead of stdout")

    p = sub.add_parser("abelianize", help="rank and torsion of a presentation")
    p.add_argument("presentation", help="presentation file or bundled name")
    common(p)
    p.set_defaults(func=_cmd_abelianize)

    p = sub.add_parser("alexander", help="Fox matrix, minors and their gcd")
    p.add_argument("presentation")
    p.add_argument("--map", required=True, help="abelianization map file or bundled name")
    p.add_argument("--minors", action="store_true", help="also print row-deletion minors")
    common(p)
    p.set_defaults(func=_cmd_alexander)

    for name, mode, help_text in (
        ("cover", "h1", "homology of a finite cyclic cover"),
        ("fill", "fill", "homology after filling the job's slopes"),
        ("sakuma", "sakuma", "transfer quotient and transfer module of a cover"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("job", help="cover job file or bundled name (cover-job)")
        p.add_argument("--n", help="cover level(s): INT, a..b or comma list")
        common(p)
        p.set_defaults(func=lambda a, m=mode, c=name: _cmd_cover_family(a, m, c))

    p = sub.add_parser("rhs-sweep", help="filled-cover homology sweep on the bundled data")
    p.add_argument("--n", default="3..9", help="levels: INT, a..b or comma list")
    p.add_argument("--force", action="store_true", help="allow even levels")
    p.add_argument("--jobs", type=text_int, default=1)
    common(p)
    p.set_defaults(func=_cmd_rhs_sweep)

    p = sub.add_parser("branched", help="branched-cover Betti numbers from a two-variable polynomial")
    p.add_argument("delta", help="polynomial file or bundled name (delta_L)")
    p.add_argument("--n", required=True, help="levels: INT, a..b or comma list")
    p.add_argument("--k", default="all", help="residue k, or 'all' coprime residues")
    p.add_argument("--jobs", type=text_int, default=1)
    common(p)
    p.set_defaults(func=_cmd_branched)

    p = sub.add_parser("verify-paper", help="check bundled reference values against fresh computations")
    p.add_argument("--item", action="append", choices=verify.ITEMS, help="run only these items")
    p.add_argument("--data-dir", help="alternate data directory")
    common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
