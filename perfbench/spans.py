"""Layer spans for the traced run, recorded from outside the package.

The package binds most names with ``from .x import y``, so patching the
defining module alone would miss every call site.  ``Tracer.install`` wraps a
function at every ``foxhom`` module global that holds it, which is where the
calling code looks it up.  ``Tracer.uninstall`` puts every original back.

A span opened while another span of the same name is open is not recorded:
recursion (``poly_gcd``) and loaders that call loaders count once, so busy
times never double count.  Spans are kept in memory as
``(name, start, end, parent)`` and turned into metrics at the end.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# span name -> functions as "module:attr", wrapped wherever they are bound
EVERYWHERE = {
    "covers.rs": ["covers:reidemeister_schreier"],
    "covers.rows": ["covers:filled_relators", "covers:transfer"],
    "abelian.cokernel": ["abelian:cokernel"],
    "snf": ["snf:smith_normal_form"],
    "fox.matrix": ["fox:alexander_matrix"],
    "fox.minors": ["fox:minor_polys"],
    "polymat.det": ["polymat:determinant"],
    "polygcd.gcd": ["polygcd:laurent_gcd", "polygcd:poly_gcd"],
    "polygcd.roots": ["polygcd:shared_root_count"],
    "laurent.substitute": ["laurent:substitute_monomial"],
    "datasets.load": [
        "datasets:load_presentation",
        "datasets:load_poly",
        "datasets:load_map",
        "datasets:load_constants",
        "datasets:load_reference",
        "datasets:load_job",
        "datasets:standard_cover_job",
    ],
    # library entry points the CLI calls, so that cli self time is only
    # argument parsing, report building and the JSON dump
    "library": [
        "covers:fill",
        "covers:sakuma_quotient",
        "covers:h_n_module",
        "covers:branched_betti",
        "presentations:abelianize",
        "fox:alexander_poly",
        "verify:run_items",
    ],
}

# span name -> "owner:attr" bindings wrapped at that one place only
AT_SITE = {
    # the exact divisions Bareiss makes, not those inside the gcd
    "polygcd.divexact": ["polymat:poly_divexact"],
    "presentations.relator_matrix": ["presentations.Presentation:relator_matrix"],
}

# the root span of one CLI invocation
CLI = "cli"

SPAN_NAMES = (CLI, *EVERYWHERE, *AT_SITE)


def _owner(path):
    module, _, cls = path.partition(".")
    owner = sys.modules[f"foxhom.{module}"]
    return getattr(owner, cls) if cls else owner


def _foxhom_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "foxhom" or name.startswith("foxhom.")]


def _nnz(matrix):
    return sum(1 for row in matrix for v in row if v)


class Tracer:
    """Records spans and exact counters for the ops run while installed."""

    def __init__(self):
        self.spans = []
        self.counters = {
            "snf.rows_max": 0,
            "snf.cols_max": 0,
            "snf.nnz": 0,
            "snf.divisors": 0,
            "snf.unit_divisors": 0,
            "snf.max_divisor_bits": 0,
            "presentations.relator_matrix.nnz": 0,
            "polygcd.roots.nonzero": 0,
        }
        self._stack = []
        self._open = set()
        self._patched = []

    # ---- recording --------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        if name in self._open:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        self._open.add(name)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.discard(name)
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)
        self._count(name, args, result)
        return result

    def _count(self, name, args, result):
        c = self.counters
        if name == "snf":
            matrix = args[0]
            c["snf.rows_max"] = max(c["snf.rows_max"], result.rows)
            c["snf.cols_max"] = max(c["snf.cols_max"], result.cols)
            c["snf.nnz"] += _nnz(matrix)
            c["snf.divisors"] += len(result.divisors)
            c["snf.unit_divisors"] += sum(1 for d in result.divisors if d == 1)
            bits = max((abs(d).bit_length() for d in result.divisors), default=0)
            c["snf.max_divisor_bits"] = max(c["snf.max_divisor_bits"], bits)
        elif name == "presentations.relator_matrix":
            c["presentations.relator_matrix.nnz"] += _nnz(result)
        elif name == "polygcd.roots":
            c["polygcd.roots.nonzero"] += int(result) > 0

    # ---- patching ---------------------------------------------------

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        wrapper.perfbench_span = name
        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _foxhom_modules()
        try:
            for name, funcs in EVERYWHERE.items():
                for spec in funcs:
                    module, attr = spec.split(":")
                    original = getattr(_owner(module), attr)
                    wrapper = self._wrap(name, original)
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is original:
                                self._patch(m, key, wrapper)
            for name, sites in AT_SITE.items():
                for spec in sites:
                    owner_path, attr = spec.split(":")
                    owner = _owner(owner_path)
                    self._patch(owner, attr, self._wrap(name, owner.__dict__[attr]))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # ---- results ----------------------------------------------------

    def layer_times(self):
        """Busy and self seconds per span name."""
        busy = dict.fromkeys(SPAN_NAMES, 0.0)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_time = dict.fromkeys(SPAN_NAMES, 0.0)
        for i, (name, start, end, _) in enumerate(self.spans):
            busy[name] += end - start
            self_time[name] += end - start - child[i]
        return busy, self_time

    def calls(self):
        out = dict.fromkeys(SPAN_NAMES, 0)
        for name, *_ in self.spans:
            out[name] += 1
        return out


def wrapped_bindings():
    """Every foxhom binding that still holds a span wrapper."""
    from foxhom.presentations import Presentation

    owners = _foxhom_modules() + [Presentation]
    return [
        (getattr(owner, "__name__", owner), key)
        for owner in owners
        for key, value in vars(owner).items()
        if hasattr(value, "perfbench_span")
    ]


def layer_metrics(traces):
    """Per-layer metrics from traced repetitions of the same ops.

    Times are medians over the repetitions; counts come from the first one
    and are exact, so every repetition must give the same counts.
    """
    first = traces[0]
    calls = first.calls()
    counters = first.counters
    for other in traces[1:]:
        if other.calls() != calls or other.counters != counters:
            raise ValueError("span counts differ between identical traced passes")
    times = [t.layer_times() for t in traces]

    def busy(name):
        return statistics.median(b[name] for b, _ in times)

    def self_s(name):
        return statistics.median(s[name] for _, s in times)

    def ratio(num, den):
        return num / den if den else 0.0

    s, count = "s", "count"
    return {
        "covers.rs.calls": (calls["covers.rs"], count),
        "covers.rs.busy_s": (busy("covers.rs"), s),
        "covers.rows.busy_s": (busy("covers.rows"), s),
        "presentations.relator_matrix.busy_s": (busy("presentations.relator_matrix"), s),
        "presentations.relator_matrix.nnz": (counters["presentations.relator_matrix.nnz"], count),
        "abelian.cokernel.self_s": (self_s("abelian.cokernel"), s),
        "snf.calls": (calls["snf"], count),
        "snf.busy_s": (busy("snf"), s),
        "snf.rows_max": (counters["snf.rows_max"], count),
        "snf.cols_max": (counters["snf.cols_max"], count),
        "snf.nnz": (counters["snf.nnz"], count),
        "snf.unit_divisor_ratio": (
            ratio(counters["snf.unit_divisors"], counters["snf.divisors"]), "ratio"),
        "snf.max_divisor_bits": (counters["snf.max_divisor_bits"], "bits"),
        "fox.matrix.busy_s": (busy("fox.matrix"), s),
        "fox.minors.busy_s": (busy("fox.minors"), s),
        "polymat.det.calls": (calls["polymat.det"], count),
        "polymat.det.busy_s": (busy("polymat.det"), s),
        "polygcd.divexact.busy_s": (busy("polygcd.divexact"), s),
        "polygcd.gcd.calls": (calls["polygcd.gcd"], count),
        "polygcd.gcd.busy_s": (busy("polygcd.gcd"), s),
        "polygcd.roots.calls": (calls["polygcd.roots"], count),
        "polygcd.roots.busy_s": (busy("polygcd.roots"), s),
        "polygcd.roots.nonzero_ratio": (
            ratio(counters["polygcd.roots.nonzero"], calls["polygcd.roots"]), "ratio"),
        "laurent.substitute.calls": (calls["laurent.substitute"], count),
        "laurent.substitute.busy_s": (busy("laurent.substitute"), s),
        "datasets.load.calls": (calls["datasets.load"], count),
        "datasets.load.busy_s": (busy("datasets.load"), s),
        "cli.self_s": (self_s(CLI), s),
    }
