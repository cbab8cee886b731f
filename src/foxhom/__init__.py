"""Exact-arithmetic homology of finitely presented groups.

Fox calculus and Alexander polynomials, integer Smith normal form,
Reidemeister-Schreier cyclic covers, filling quotients and branched-cover
Betti numbers, all over arbitrary-precision integers.
"""

from .abelian import AbelianGroup, cokernel
from .covers import (
    CoverPresentation,
    CyclicQuotientMap,
    FillingSpec,
    branched_betti,
    fill,
    h1_cover,
    h_n_module,
    mutation_invariance_check,
    reidemeister_schreier,
    sakuma_quotient,
    transfer,
)
from .fox import (
    AbelianizationMap,
    alexander_matrix,
    alexander_poly,
    fox_derivative,
    minor_polys,
)
from .laurent import LaurentPoly, nu_poly, parse_poly, substitute_monomial
from .polygcd import RootCount, laurent_divexact, laurent_gcd, shared_root_count
from .polymat import LaurentMatrix, determinant
from .presentations import Presentation, abelianize, tietze_add_generator, tietze_eliminate
from .snf import smith_normal_form
from .words import ParseError, Word, exponent_vector, parse_word

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "AbelianizationMap",
    "CoverPresentation",
    "CyclicQuotientMap",
    "FillingSpec",
    "LaurentMatrix",
    "LaurentPoly",
    "ParseError",
    "Presentation",
    "RootCount",
    "Word",
    "abelianize",
    "alexander_matrix",
    "alexander_poly",
    "branched_betti",
    "cokernel",
    "determinant",
    "exponent_vector",
    "fill",
    "fox_derivative",
    "h1_cover",
    "h_n_module",
    "laurent_divexact",
    "laurent_gcd",
    "minor_polys",
    "mutation_invariance_check",
    "nu_poly",
    "parse_poly",
    "parse_word",
    "reidemeister_schreier",
    "sakuma_quotient",
    "shared_root_count",
    "smith_normal_form",
    "substitute_monomial",
    "tietze_add_generator",
    "tietze_eliminate",
    "transfer",
]
