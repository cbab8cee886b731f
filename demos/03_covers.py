"""Cyclic covers, transfers, and filled-cover homology.

Builds the n-fold cyclic covers of the bundled group for odd n, fills the
three boundary slopes, and compares the filling quotient with the
transfer-defined quotient.  Every filled cover comes out finite: the filled
manifolds are rational homology spheres.
Run with:  python demos/03_covers.py
"""

from foxhom import (
    CyclicQuotientMap,
    FillingSpec,
    datasets,
    fill,
    h1_cover,
    h_n_module,
    reidemeister_schreier,
    sakuma_quotient,
)

job = datasets.standard_cover_job()
p = job["presentation"]
slopes = FillingSpec(job["fill"])
print(f"base group: {p.name}, generators {p.generators}")
print(f"generator degrees: {job['degrees']}")
print(f"slopes to fill: {[str(w) for w in job['fill']]}")
print()

rows = []
for n in (1, 3, 5, 7, 9):
    q = CyclicQuotientMap(p, n, job["degrees"])
    cover = reidemeister_schreier(p, q)
    h1 = h1_cover(cover)
    filled = fill(cover, slopes)
    sak = sakuma_quotient(cover)
    hn = h_n_module(cover)
    assert filled == sak, "filling and transfer quotients must agree"
    rows.append((str(n), str(h1), str(filled), str(sak.order // hn.order)))

widths = [max(len(r[i]) for r in rows + [("n", "H1 of cover", "filled homology", "ratio")]) for i in range(4)]
header = ("n", "H1 of cover", "filled homology", "ratio")
print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
print("  ".join("-" * w for w in widths))
for r in rows:
    print("  ".join(c.ljust(w) for c, w in zip(r, widths)))

print()
print("rank 0 everywhere: the filled covers are rational homology spheres;")
print("the quotient by the transfer module is an extension of order dividing 8.")
