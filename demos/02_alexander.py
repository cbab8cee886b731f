"""Fox calculus: the presentation matrix, its minors and their gcd.

Differentiates the bundled relators with respect to each generator,
prints the resulting matrix over Z[x,x^-1,y,y^-1,z,z^-1], and reduces it
to the three-variable polynomial invariant and its one-variable
specialization.
Run with:  python demos/02_alexander.py
"""

from foxhom import (
    alexander_matrix,
    alexander_poly,
    datasets,
    laurent_divexact,
    minor_polys,
    substitute_monomial,
)

p = datasets.load_presentation("n-final")
phi = datasets.load_map("map-free-abelian", source=p.generators)

grid = alexander_matrix(p, phi)
print("Fox-derivative matrix (rows = generators, columns = relators):")
print(grid.table())

print()
print("row-deletion minors, in normal form:")
minors = minor_polys(grid, phi)
for g in p.generators:
    print(f"  delete {g:>3}: {minors[g]}")

delta = alexander_poly(p, phi)
print()
print(f"gcd of the minors: {delta}")

spec = substitute_monomial(delta, {"x": (1, (2,)), "y": (1, (1,)), "z": (1, (1,))}, ("x",))
print(f"specialized along m -> x^2, s,t -> x: {spec}")

# Computing the gcd directly from the specialized matrix is coarser: the
# gcd of the specialized minors picks up one extra factor of x - 1.
cyclic = datasets.load_map("map-infinite-cyclic", source=p.generators)
direct = alexander_poly(p, cyclic)
print(f"gcd computed from the specialized matrix: {direct}")
print(f"ratio of the two routes: {laurent_divexact(direct.normal_form(), spec.normal_form())}")
