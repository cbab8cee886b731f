"""Golden checks tying the bundled reference data to fresh computations.

Each item recomputes something from first principles and compares it with
the transcribed reference values.  ``run_items`` returns an ordered list of
(item, passed, detail) triples; the CLI turns any failure into exit code 1.

Items and the data files they read:

* matrix, minors, delta -- n-final, map-free-abelian, alexander-reference
* delta-inf -- the same plus map-infinite-cyclic
* h1 -- n-final, nb, rst
* rhs -- cover-job (and n-final through it)
* factorization, branched -- delta_L
"""

from __future__ import annotations

from functools import cached_property

from . import datasets
from .covers import (
    CyclicQuotientMap,
    FillingSpec,
    branched_betti,
    fill,
    reduce_job,
    reidemeister_schreier,
    transfer_quotients,
)
from .fox import alexander_matrix, minor_polys
from .laurent import LaurentPoly, nu_poly, substitute_monomial
from .polygcd import laurent_gcd
from .presentations import abelianize

# every data file some item reads, for the report's input digests
INPUT_FILES = ("n-final", "nb", "rst", "alexander-reference", "delta_L",
               "map-free-abelian", "map-infinite-cyclic", "cover-job")

RHS_LEVELS = (3, 5, 7, 9)
# prime levels, so every k in 1..n - 1 is a coprime residue
BRANCHED_PRIMES = (5, 7, 11, 13)
FACTORIZATION_RANGE = range(2, 13)


class _Inputs:
    """What the items of one run read, each loaded or derived on first use.

    A field that raises is not stored, so it fails every item that reads it
    and no other.
    """

    def __init__(self, dir):
        self.dir = dir

    @cached_property
    def reference(self):
        return datasets.load_reference(self.dir)

    @cached_property
    def n_final(self):
        return datasets.load_presentation("n-final", self.dir)

    @cached_property
    def phi(self):
        return datasets.load_map(
            "map-free-abelian", source=self.n_final.generators, dir=self.dir)

    @cached_property
    def cyc(self):
        return datasets.load_map(
            "map-infinite-cyclic", source=self.n_final.generators, dir=self.dir)

    @cached_property
    def delta_L(self):
        return datasets.load_poly("delta_L", self.dir)

    @cached_property
    def job(self):
        return datasets.standard_cover_job(self.dir)

    @cached_property
    def matrix(self):
        return alexander_matrix(self.n_final, self.phi)

    @cached_property
    def minors(self):
        return minor_polys(self.matrix, self.phi)

    @cached_property
    def delta(self):
        return laurent_gcd(self.minors.values())


def _check_matrix(inputs):
    got = inputs.matrix
    ref = inputs.reference["matrix"]
    if got == ref:
        return True, "{}x{} matrix matches entrywise".format(*got.shape)
    if got.shape != ref.shape:
        return False, "shape {}x{}, reference {}x{}".format(*got.shape, *ref.shape)
    if (got.vars, got.row_labels, got.col_labels) != (
        ref.vars, ref.row_labels, ref.col_labels
    ):
        return False, "variables or labels differ from the reference"
    pairs = [
        (a, b)
        for row_a, row_b in zip(got.entries, ref.entries)
        for a, b in zip(row_a, row_b)
    ]
    # documented fallback: entrywise unit equivalence
    if all(a.unit_equivalent(b) for a, b in pairs):
        return False, "entries agree only up to units (lift convention mismatch)"
    bad = sum(1 for a, b in pairs if a != b)
    return False, f"{bad} entries differ"


def _check_minors(inputs):
    ref = inputs.reference["minors"]
    minors = inputs.minors
    # a zero minor's normal form is zero, so one comparison serves it too
    bad = [g for g in inputs.n_final.generators if not minors[g].unit_equivalent(ref[g])]
    if bad:
        return False, f"minors differ for rows {bad}"
    return True, "all six row-deletion minors match up to unit/sign"


def _check_delta(inputs):
    ref = inputs.reference
    delta = inputs.delta
    if delta.unit_equivalent(ref["delta"]):
        return True, "gcd of minors matches the reference polynomial"
    return False, f"gcd of minors is {delta}"


def _check_delta_inf(inputs):
    ref = inputs.reference
    phi, cyc = inputs.phi, inputs.cyc
    images = {v: cyc.images[g] for v, g in zip(phi.vars, ("m", "s", "t"))}
    spec = substitute_monomial(inputs.delta, images, cyc.vars)
    if spec.unit_equivalent(ref["delta_inf"]):
        return True, "specialized gcd matches the reference polynomial"
    return False, f"specialization is {spec}"


def _check_h1(inputs):
    got = []
    expected = {"n-final": (3, (2,)), "nb": (3, ()), "rst": (2, ())}
    for name, (rank, torsion) in expected.items():
        if name == "n-final":
            group = abelianize(inputs.n_final)
        else:
            group = abelianize(datasets.load_presentation(name, inputs.dir))
        if (group.rank, group.torsion) != (rank, torsion):
            got.append(f"{name}: {group}")
    if got:
        return False, "; ".join(got)
    return True, "abelianizations match: n-final, nb, rst"


def _check_factorization(inputs):
    delta = inputs.delta_L
    a, b = delta.vars
    t = LaurentPoly.variable(("t",), "t")
    boundary = (t - 1) ** 5
    for k in FACTORIZATION_RANGE:
        spec = substitute_monomial(delta, {a: (1, (k,)), b: (1, (1,))}, ("t",))
        nus = nu_poly(k - 1) * nu_poly(k) * nu_poly(k + 1)
        product = boundary * nus
        expected = product.shift((-(3 * k - 1),))
        if spec != expected:
            return False, f"factorization fails at k={k}"
    return True, "specializations factor through the all-ones polynomials for k in 2..12"


def _check_rhs(inputs):
    job = reduce_job(inputs.job, max(RHS_LEVELS))
    p = job["presentation"]
    spec = FillingSpec(job["fill"])
    for n in RHS_LEVELS:
        cover = reidemeister_schreier(p, CyclicQuotientMap(p, n, job["degrees"]))
        filled = fill(cover, spec)
        if filled.rank != 0:
            return False, f"n={n}: filled homology has rank {filled.rank}"
        sak, hn = transfer_quotients(cover, job["words"])
        if sak.rank != 0 or sak.order != filled.order:
            return False, f"n={n}: transfer quotient disagrees with filling"
        ratio = sak.order // hn.order
        if sak.order % hn.order or ratio not in (1, 2, 4, 8):
            return False, f"n={n}: order ratio {sak.order}/{hn.order}"
    return True, f"filled covers are rational homology spheres for n in {RHS_LEVELS}"


def _check_branched(inputs):
    delta = inputs.delta_L
    for n in BRANCHED_PRIMES:
        for k in range(1, n):
            count = branched_betti(delta, k, n)
            if k in (1, n - 1):
                if int(count) <= 0:
                    return False, f"(n={n}, k={k}): expected positive count"
            elif int(count) != 0:
                return False, f"(n={n}, k={k}): count {int(count)}"
    return True, f"betti zero away from k=1, n-1 for primes {BRANCHED_PRIMES}"


_CHECKS = {
    "matrix": _check_matrix,
    "minors": _check_minors,
    "delta": _check_delta,
    "delta-inf": _check_delta_inf,
    "h1": _check_h1,
    "factorization": _check_factorization,
    "rhs": _check_rhs,
    "branched": _check_branched,
}
ITEMS = tuple(_CHECKS)


def run_items(items=None, dir=None):
    """Run the golden suite; unknown item names raise ValueError."""
    selected = ITEMS if not items else tuple(items)
    for item in selected:
        if item not in _CHECKS:
            raise ValueError(f"unknown item {item!r}; choose from {ITEMS}")
    inputs = _Inputs(dir)
    results = []
    for item in selected:
        try:
            ok, detail = _CHECKS[item](inputs)
        except Exception as exc:  # corrupt data must fail the item, not the run
            ok, detail = False, f"error: {exc}"
        results.append((item, ok, detail))
    return results
