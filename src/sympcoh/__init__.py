"""Exact invariant cohomology of Lie algebra quotients.

Computes, in exact rational arithmetic, the invariant de Rham cohomology of
a Lie algebra given by structure equations, the symplectic codifferential
cohomologies (Bott-Chern and Aeppli type) with hard Lefschetz verdicts, the
almost-complex pure-type cohomology groups, and injectivity reports for the
maps induced by Lie algebra morphisms.
"""

from .acx import (
    COMPATIBLE,
    NEITHER,
    TAMED_ONLY,
    AlmostComplexStructure,
    PureFullResult,
    PureTypeGroup,
    compatibility,
    h_j,
    pure_full_check,
    pure_subquotient,
    pure_type_subspace,
    validate_acs,
)
from .catalog import CatalogEntry, complex_to_real, get, names, standard_block_j
from .cec import BettiTable, LieAlgebra, betti, d_matrix, differential, is_nilpotent, validate
from .forms import (
    Bivector,
    KForm,
    basis_masks,
    contract,
    j_action,
    matrix_of,
    poisson_bivector,
    wedge,
)
from .linalg import (
    ContainmentError,
    DimensionMismatch,
    InducedMap,
    RationalMatrix,
    Subspace,
    induced_map_rank,
    kernel,
    rank,
)
from .morphism import (
    HypothesisError,
    InjectivityReport,
    LieMorphism,
    check_pullback_symplectic,
    induced_report,
    pullback,
    validate_morphism,
)
from .parser import ParseError, parse_form, parse_salamon, render_form, render_salamon
from .symplectic import (
    CohomologyReport,
    DegenerateError,
    NotClosedError,
    SymplecticStructure,
    d_lambda,
    dual_lefschetz,
    h_aeppli,
    h_bottchern,
    h_dlambda,
    lefschetz,
    make,
    natural_map_ranks,
    report,
    star,
)

__version__ = "0.1.0"
